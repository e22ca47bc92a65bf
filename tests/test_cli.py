import contextlib
import io
import os
import re
import socket
import socketserver
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from hypersetdb import cli, evaluator
from hypersetdb.bisim import OracleValue
from hypersetdb.cli import (
    LIBRARY_OK, NOT_WELL_FORMED, NOT_WELL_TYPED, PRECEDENCE_WARNING, WELL_TYPED,
    Session, SessionConfig, build_flags, repl,
)
from hypersetdb.library import PREDEFINED_DECLARATIONS
from hypersetdb.names import SetName
from hypersetdb.store import MemoryFetcher

from conftest import bibdb_f1_text, bibdb_f2_text

F1 = "mem://BibDB-f1.xml"
F2 = "mem://BibDB-f2.xml"


def make_session(**config_kwargs) -> Session:
    fetcher = MemoryFetcher({F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2)})
    return Session(SessionConfig(**config_kwargs), fetcher=fetcher)


def test_simple_query_output():
    session = make_session()
    output = session.run_command("set query { 'a':{} };")
    assert output.startswith(WELL_TYPED)
    assert "Result = {'a':{}}" in output
    assert "Finished in:" in output


def test_timing_can_be_disabled():
    session = make_session(show_time=False)
    output = session.run_command("set query {};")
    assert "Finished in" not in output


def test_non_well_typed_query_reports_names():
    session = make_session()
    output = session.run_command(
        "set query collect { pub-type:pub where pub-type:pub in BibDB "
        "and exists 'refers-to':ref in pub . ref=b2 };")
    assert NOT_WELL_TYPED in output
    assert "BibDB not declared" in output
    assert "b2 not declared" in output


def test_parse_error_reports_position():
    session = make_session()
    output = session.run_command("set query ;")
    assert "not well-formed" in output
    assert "Error at character" in output


def test_parse_error_position_is_in_the_users_text():
    output = make_session().run_command("set query ;")
    assert "Error at character 11, " in output
    assert output.endswith("...set query ; <-------")


def test_analysis_error_position_is_in_the_users_text():
    output = make_session().run_command("set query { 'a': x };")
    assert NOT_WELL_TYPED in output
    assert "Error at character 18, occurrence of identifier name x not declared" in output
    assert output.endswith("...set query { 'a': x }; <-------")


def test_library_add_parse_error_is_located():
    output = make_session().run_command("library add set constant = {};")
    assert NOT_WELL_FORMED in output
    assert "Error at character 26, " in output
    assert output.endswith("...library add set constant = {}; <-------")


def test_session_parses_only_the_users_text(monkeypatch):
    session = make_session()
    lengths = []

    def recording_parse(source):
        lengths.append(len(source))
        return parse(source)

    parse = cli.parse
    monkeypatch.setattr(cli, "parse", recording_parse)
    queries = ["set query call Pair({}, {});",
               "boolean query call isPair(call Pair({}, {}));"]
    for query in queries:
        assert WELL_TYPED in session.run_command(query)
    assert lengths == [len(query) for query in queries]


def test_document_naming_a_session_generated_set_is_refused():
    """A document that hrefs local://session#res must not read the set the
    session happened to generate under that name."""
    document = """<set:eqns xmlns:set="http://www.csc.liv.ac.uk/~molyneux/XML-WDB">
      <set:eqn set:id="x"><a set:href="local://session#res"/></set:eqn>
    </set:eqns>"""
    session = Session(SessionConfig(show_time=False),
                      fetcher=MemoryFetcher({"mem://d.xml": document}))
    assert "Result = {'k':{}}" in session.run_command("set query { 'k': {} };")
    output = session.run_command("set query mem://d.xml#x;")
    assert "invalid XML-WDB document mem://d.xml" in output
    assert "bad-href" in output
    assert "Result" not in output


@pytest.mark.parametrize("query", [
    "set query {'a': local://session#res3};",
    "set query {'x': local://session#zz, 'y': local://session#zz};",
])
def test_query_naming_an_undefined_session_set_is_refused(query):
    session = make_session(show_time=False)
    name = re.search(r"local://session#\w+", query).group()
    assert session.run_command(query) == "Query failed: undefined local name " + name
    assert session.run_command("set query {};") == WELL_TYPED + "\n\nResult = {}"


def test_library_constant_naming_an_undefined_session_set_is_refused():
    session = make_session(show_time=False)
    listing = session.run_command("library list;")
    output = session.run_command("library add set constant c = {'a': local://session#zz};")
    assert output == "Library command failed: undefined local name local://session#zz"
    assert session.run_command("library list;") == listing
    assert session.run_command("set query {};") == WELL_TYPED + "\n\nResult = {}"


def test_query_naming_a_defined_session_set_is_answered():
    session = make_session(show_time=False)
    session.run_command("set query {'b':{}, 'c':{'d':{}}};")
    output = session.run_command("set query {'z': local://session#res};")
    assert output == WELL_TYPED + "\n\nResult = {'z':{}}"
    assert session.run_command("set query {};") == WELL_TYPED + "\n\nResult = {}"


def test_queries_over_a_document_nested_5000_deep_are_answered():
    depth = 5000
    document = ('<set:eqns xmlns:set="http://www.csc.liv.ac.uk/~molyneux/XML-WDB">'
                '<set:eqn set:id="d">%s%s</set:eqn></set:eqns>'
                % ("<n>t " * depth, "</n>u" * depth))
    session = Session(SessionConfig(show_time=False),
                      fetcher=MemoryFetcher({"mem://d.xml": document,
                                             "mem://copy.xml": document}))
    output = session.run_command("set query mem://d.xml#d;")
    assert "Result = {'n':mem://d.xml#d-e1, 'u':mem://d.xml#d-e15000}" in output
    output = session.run_command("boolean query mem://d.xml#d = mem://copy.xml#d;")
    assert "Result = true" in output


def test_library_list_contains_predefined_declarations():
    session = make_session()
    output = session.run_command("library list;")
    assert LIBRARY_OK in output
    assert PRECEDENCE_WARNING in output
    for header in ("set query Pair (set x,set y)",
                   "boolean query isPair (set p)",
                   "set query StrictLinOrder_on_TC (set z)"):
        assert header in output


def test_library_add_and_duplicate_precedence():
    session = make_session()
    session.run_command("library add set constant some_book = %s#b1;" % F1)
    session.run_command("library add set constant some_book = %s#b2;" % F1)
    listing = session.run_command("library list;")
    entries = [line.strip().rstrip(",") for line in listing.splitlines()
               if "some_book" in line]
    assert entries == ["set constant some_book", "set constant some_book"]
    assert listing.rstrip().endswith("set constant some_book")

    # the later declaration wins for queries
    output = session.run_command("boolean query some_book = %s#b2;" % F1)
    assert "Result = true" in output


def test_library_add_validates_declarations():
    session = make_session()
    output = session.run_command("library add set constant broken = missing;")
    assert NOT_WELL_TYPED in output
    listing = session.run_command("library list;")
    assert "broken" not in listing


def test_library_add_analysis_error_is_located_in_the_command():
    output = make_session().run_command("library add set constant broken = missing;")
    assert "Error at character 35, occurrence of identifier name missing not declared" \
        in output
    assert output.endswith("...ary add set constant broken = missing; <-------")


# Exact replies to ill-formed and ill-typed commands, recorded before the front
# end was put into one pass; the pair with two typing errors in different
# subtrees pins that the leftmost one is reported.
GOLDEN_DIAGNOSTICS = [
    ("set query { 'a': x } $;",
     "Query is not well-formed\n\nError at character 22, unexpected character '$' (at character 22):\n  ...set query { 'a': x } $; <-------"),
    ("set query { 'a b':{} };",
     'Query is not well-formed\n\nError at character 13, unexpected character "\'" (at character 13):\n  ...set query { \'a b\':{} }; <-------'),
    ('library add set constant c = { \'a\': "x };',
     'Query is not well-formed\n\nError at character 37, unexpected character \'"\' (at character 37):\n  ...y add set constant c = { \'a\': "x }; <-------'),
    ('set query ;',
     'Query is not well-formed\n\nError at character 11, expected a term:\n  ...set query ; <-------'),
    ('boolean query a = ;',
     'Query is not well-formed\n\nError at character 19, expected a label:\n  ...boolean query a = ; <-------'),
    ('set query {} {};',
     "Query is not well-formed\n\nError at character 14, expected ';':\n  ...set query {} {}; <-------"),
    ("set query let label constant l = 'a*' in {} endlet;",
     "Query is not well-formed\n\nError at character 34, label constants must be plain label values:\n  ... query let label constant l = 'a*' in {} e <-------"),
    ('boolean query (true and );',
     'Query is not well-formed\n\nError at character 25, expected a formula:\n  ...boolean query (true and ); <-------'),
    ('boolean query forall l:x in {} . ;',
     'Query is not well-formed\n\nError at character 34, expected a formula:\n  ...lean query forall l:x in {} . ; <-------'),
    ('library add set constant = {};',
     'Query is not well-formed\n\nError at character 26, expected identifier:\n  ...library add set constant = {}; <-------'),
    ('library remove c;',
     "Query is not well-formed\n\nError at character 9, expected 'add' or 'list':\n  ...library remove c; <-------"),
    ("set query collect { pub-type:pub where pub-type:pub in BibDB and exists 'refers-to':ref in pub . ref=b2 };",
     "Query is well-formed, but not well-typed\n\nError at character 56, occurrence of identifier name BibDB not declared:\n  ...ype:pub where pub-type:pub in BibDB and ex <-------\nError at character 102, occurrence of identifier name b2 not declared:\n  ... 'refers-to':ref in pub . ref=b2 }; <-------"),
    ("boolean query let set constant c = {}, label constant l = 'a' in (l = c and c = l) endlet;",
     "Query is well-formed, but not well-typed\n\nError at character 67, the statement 'l = c' cannot be properly typed:\n  ...}, label constant l = 'a' in (l = c and c  <-------"),
    ("boolean query let set constant c = {}, label constant l = 'a' in (l < l and (c = l or l = c)) endlet;",
     "Query is well-formed, but not well-typed\n\nError at character 78, the statement 'c = l' cannot be properly typed:\n  ...nstant l = 'a' in (l < l and (c = l or l = <-------"),
    ('set query let set constant c = x in c endlet;',
     'Query is well-formed, but not well-typed\n\nError at character 32, occurrence of identifier name x not declared:\n  ...et query let set constant c = x in c endle <-------'),
    ('boolean query forall l:x in x . true;',
     'Query is well-formed, but not well-typed\n\nError at character 29, variable x occurs in the term bounding it:\n  ...boolean query forall l:x in x . true; <-------'),
    ('set query recursion p { l:x in p where true };',
     'Query is well-formed, but not well-typed\n\nError at character 32, variable p occurs in the term bounding it:\n  ...et query recursion p { l:x in p where true <-------'),
    ("set query let set query f (set x) be { 'l':y } in call f({}) endlet;",
     "Query is well-formed, but not well-typed\n\nError at character 44, occurrence of identifier name y not declared:\n  ... set query f (set x) be { 'l':y } in call  <-------"),
    ('set query let set query f (set x) be call f(x) in call f({}) endlet;',
     'Query is well-formed, but not well-typed\n\nError at character 43, recursive call of f: recursive calls are not allowed:\n  ...t set query f (set x) be call f(x) in call <-------'),
    ('set query let set query f (set x,set y) be {} in call f({}) endlet;',
     'Query is well-formed, but not well-typed\n\nError at character 50, query f expects 2 parameter(s), got 1:\n  ...uery f (set x,set y) be {} in call f({}) e <-------'),
    ("set query let label constant l = 'a', set query f (set x) be {} in call f(l) endlet;",
     "Query is well-formed, but not well-typed\n\nError at character 75, parameter 'l' is not a set:\n  ...ery f (set x) be {} in call f(l) endlet; <-------"),
    ('set query let boolean query f (set x) be true in call f({}) endlet;',
     "Query is well-formed, but not well-typed\n\nError at character 1, the statement 'set query let boolean query f ( set x ) ...' cannot be properly typed:\n  ...set query le <-------"),
    ('set query call Pair({});',
     'Query is well-formed, but not well-typed\n\nError at character 11, query Pair expects 2 parameter(s), got 1:\n  ...set query call Pair({} <-------'),
    ('library add set constant broken = missing;',
     'Query is well-formed, but not well-typed\n\nError at character 35, occurrence of identifier name missing not declared:\n  ...ary add set constant broken = missing; <-------'),
    ("library add set query g (set x) be { 'a': z }, set constant k = call g({}, {});",
     "Query is well-formed, but not well-typed\n\nError at character 43, occurrence of identifier name z not declared:\n  ...set query g (set x) be { 'a': z }, set con <-------"),
    ('boolean query forall l:x in {} . let set constant c = x in c = x endlet;',
     'Query is well-formed, but not well-typed\n\nError at character 55, free variable x in a set constant definition:\n  ... in {} . let set constant c = x in c = x e <-------'),
    ("boolean query forall l:y in {} . let set query f (set x) be { 'l':y } in call f({}) = {} endlet;",
     "Query is well-formed, but not well-typed\n\nError at character 67, variable y is free in the body of f:\n  ... set query f (set x) be { 'l':y } in call  <-------"),
    ('boolean query (forall m:y in y . true and forall n:z in z . true);',
     'Query is well-formed, but not well-typed\n\nError at character 30, variable y occurs in the term bounding it:\n  ...boolean query (forall m:y in y . true and <-------\nError at character 57, variable z occurs in the term bounding it:\n  ...in y . true and forall n:z in z . true); <-------'),
]


# Nested binders report the outer binder's errors first, binder by binder in
# preorder, also where the inner binder lies in the outer's bounding term.
# Kept apart from GOLDEN_DIAGNOSTICS, whose commands the golden replies replay.
NESTED_BINDER_DIAGNOSTICS = [
    ('boolean query exists l:x in x . exists m:y in y . true;',
     'Query is well-formed, but not well-typed\n\nError at character 29, variable x occurs in the term bounding it:\n  ...boolean query exists l:x in x . exists m <-------\nError at character 47, variable y occurs in the term bounding it:\n  ...ists l:x in x . exists m:y in y . true; <-------'),
    ('boolean query exists l:x in separate { m:y in y where x = x } . true;',
     'Query is well-formed, but not well-typed\n\nError at character 55, variable x occurs in the term bounding it:\n  ... in separate { m:y in y where x = x } . tr <-------\nError at character 59, variable x occurs in the term bounding it:\n  ...separate { m:y in y where x = x } . true; <-------\nError at character 47, variable y occurs in the term bounding it:\n  ...ists l:x in separate { m:y in y where x =  <-------'),
]


# The refusals the descent makes itself reach the user with their own reason
# and position: a wildcard in a variable pair, on both sides of a label
# equality or in a label comparison (a wildcard label constant is in
# GOLDEN_DIAGNOSTICS), also under a parenthesised formula, an `if` or a
# `let`, which the descent backtracks out of on any other failure.
REFUSAL_DIAGNOSTICS = [
    ("set query separate { 'a*':x in {} where true };",
     "Query is not well-formed\n\nError at character 22, wildcards are not allowed in variable pairs:\n  ...set query separate { 'a*':x in {} <-------"),
    ("set query collect { 'b':x where '*a':x in {} };",
     "Query is not well-formed\n\nError at character 33, wildcards are not allowed in variable pairs:\n  ...t query collect { 'b':x where '*a':x in {} <-------"),
    ("set query recursion p { 'a*':x in {} where true };",
     "Query is not well-formed\n\nError at character 25, wildcards are not allowed in variable pairs:\n  ...set query recursion p { 'a*':x in {} <-------"),
    ("boolean query exists 'a*':x in {} . true;",
     "Query is not well-formed\n\nError at character 22, wildcards are not allowed in variable pairs:\n  ...boolean query exists 'a*':x in {} <-------"),
    ("boolean query 'a*' = 'b*';",
     "Query is not well-formed\n\nError at character 20, only one side of a label equality may carry wildcards:\n  ...boolean query 'a*' = 'b*'; <-------"),
    ("boolean query 'a*' = *l;",
     "Query is not well-formed\n\nError at character 20, only one side of a label equality may carry wildcards:\n  ...boolean query 'a*' = *l; <-------"),
    ("boolean query 'a*' < 'b';",
     "Query is not well-formed\n\nError at character 20, wildcards are not allowed in label comparisons:\n  ...boolean query 'a*' < 'b'; <-------"),
    ("boolean query (true and 'a*' = 'b*');",
     "Query is not well-formed\n\nError at character 30, only one side of a label equality may carry wildcards:\n  ...boolean query (true and 'a*' = 'b*'); <-------"),
    ("boolean query (l * >= 'b' or true);",
     "Query is not well-formed\n\nError at character 20, wildcards are not allowed in label comparisons:\n  ...boolean query (l * >= 'b' or tr <-------"),
    ("boolean query (let label constant l = '*a' in true endlet);",
     "Query is not well-formed\n\nError at character 39, label constants must be plain label values:\n  ...query (let label constant l = '*a' in true <-------"),
    ("boolean query if 'a*' = 'b*' then true else false fi;",
     "Query is not well-formed\n\nError at character 23, only one side of a label equality may carry wildcards:\n  ...boolean query if 'a*' = 'b*' then  <-------"),
    ("boolean query if true then exists 'a*':x in {} . true else false fi;",
     "Query is not well-formed\n\nError at character 35, wildcards are not allowed in variable pairs:\n  ...ean query if true then exists 'a*':x in {} <-------"),
    ("set query if true then {} else separate { '*a':x in {} where true } fi;",
     "Query is not well-formed\n\nError at character 43, wildcards are not allowed in variable pairs:\n  ... true then {} else separate { '*a':x in {} <-------"),
    ("boolean query let label constant l = 'a*' in l = 'a' endlet;",
     "Query is not well-formed\n\nError at character 38, label constants must be plain label values:\n  ... query let label constant l = 'a*' in l =  <-------"),
    ("boolean query let set constant c = {} in 'a*' < 'b' endlet;",
     "Query is not well-formed\n\nError at character 47, wildcards are not allowed in label comparisons:\n  ...t set constant c = {} in 'a*' < 'b' endlet <-------"),
    ("set query let set constant c = separate { 'a*':x in {} where true } in c endlet;",
     "Query is not well-formed\n\nError at character 43, wildcards are not allowed in variable pairs:\n  ...t set constant c = separate { 'a*':x in {} <-------"),
]


@pytest.mark.parametrize("command,expected",
                         GOLDEN_DIAGNOSTICS + NESTED_BINDER_DIAGNOSTICS + REFUSAL_DIAGNOSTICS)
def test_golden_diagnostics(command, expected):
    assert make_session(show_time=False).run_command(command) == expected


def test_library_add_compiles_only_the_added_declarations(monkeypatch):
    session = make_session(show_time=False)
    compiled = []
    monkeypatch.setattr(evaluator, "parse", lambda source: compiled.append(source))
    output = session.run_command(
        "library add set constant a = { 'x':{} }, "
        "set query P (set q) be { 'p':q, 'a':a };")
    assert LIBRARY_OK in output
    assert compiled == []
    assert "Result = {'p':{}, 'a':\"x\"}" in session.run_command("set query call P({});")
    # a declaration sees only those left of it, in the command and before
    output = session.run_command(
        "library add set constant b = { 'c':c }, set constant c = {};")
    assert "Error at character 36, recursive call of c" in output


def test_earlier_declarations_keep_their_bindings():
    session = make_session()
    session.run_command("library add set constant c = { 'v1':{} };")
    session.run_command("library add set query useC (set ignored) be c;")
    session.run_command("library add set constant c = { 'v2':{} };")
    output = session.run_command("set query call useC({});")
    # useC still sees the first c
    assert "'v1'" in output


def test_added_regroup_does_not_change_decorate_or_can():
    graph = ("let set constant g = { 'null':call Pair(\"a\",\"b\"), "
             "'null':call Pair(\"b\",\"a\"), 'null':call Pair(\"a\",\"d\") } in %s endlet;")
    queries = ["set query " + graph % 'decorate (g, "a")',
               "set query " + graph % 'call Can ( decorate (g, "a") )']
    predefined = make_session(show_time=False)
    expected = [predefined.run_command(q) for q in queries]
    session = make_session(show_time=False)
    output = session.run_command("library add set query Regroup (set g) be {};")
    assert LIBRARY_OK in output
    # decorate groups the graph itself, so neither it nor Can changes ...
    assert [session.run_command(q) for q in queries] == expected
    assert all("Result = {'null':" in text for text in expected)
    # ... while queries call the added one
    assert "Result = {}" in session.run_command("set query call Regroup(%s#b1);" % F1)


def test_query_declaration_shadows_library_declaration():
    session = make_session(show_time=False)
    session.run_command("library add set constant k = { 'library':{} };")
    output = session.run_command(
        "set query let set constant k = { 'query':{} }, "
        "set query Pair (set x,set y) be { 'mine':x } in "
        "{ 'k':k, 'p':call Pair({}, {}) } endlet;")
    assert "Result = {'k':\"query\", 'p':\"mine\"}" in output
    assert "Result = {'library':{}}" in session.run_command("set query k;")


def test_library_add_with_failing_constant_keeps_the_library():
    session = make_session(show_time=False)
    output = session.run_command(
        "library add set constant gone = union mem://missing.xml#x;")
    assert output.startswith("Library command failed:")
    assert "gone" not in session.run_command("library list;")
    assert "Result = {}" in session.run_command("set query {};")


def test_library_list_verbose_shows_bodies():
    session = make_session()
    output = session.run_command("library list verbose;")
    assert "{ 'fst':x, 'snd':y }" in output


def test_bibdb_query_end_to_end():
    session = make_session()
    source = """set query
      let set constant BibDB be %s#BibDB,
          set constant b2 be %s#b2
      in collect { pub-type:pub
          where pub-type:pub in BibDB
          and exists 'refers-to':ref in pub . ref=b2
        }
      endlet;""" % (F1, F1)
    output = session.run_command(source)
    assert WELL_TYPED in output
    assert "'paper':%s#p2" % F2 in output
    assert "'book':%s#b1" % F1 in output


def test_repl_runs_until_exit():
    session = make_session()
    stream_in = io.StringIO("set query {};\nexit;\nset query { 'x':{} };\n")
    stream_out = io.StringIO()
    repl(session, stream_in, stream_out)
    text = stream_out.getvalue()
    assert "Result = {}" in text
    assert "'x'" not in text  # nothing after exit runs


def test_a_malformed_exit_is_refused_and_the_session_goes_on():
    session = make_session(show_time=False)
    assert session.run_command("exit now;") == \
        NOT_WELL_FORMED + "\n\nError at character 6, expected ';':\n  ...exit now; <-------"
    assert session.run_command("set query {};") == WELL_TYPED + "\n\nResult = {}"
    stream_out = io.StringIO()
    repl(session, io.StringIO("exit now;\nset query {};\nexit;\nset query { 'x':{} };\n"),
         stream_out)
    assert stream_out.getvalue().split("\n\n") == [
        NOT_WELL_FORMED, "Error at character 6, expected ';':\n  ...exit now; <-------",
        WELL_TYPED, "Result = {}", ""]


def test_repl_continues_after_errors():
    session = make_session()
    stream_in = io.StringIO("set query ;\nset query {};\n")
    stream_out = io.StringIO()
    repl(session, stream_in, stream_out)
    text = stream_out.getvalue()
    assert "not well-formed" in text
    assert "Result = {}" in text


DEPTH = 2000


@pytest.mark.parametrize("command", [
    "set query " + "(" * DEPTH + "{}" + ")" * DEPTH + ";",
    "boolean query " + "not " * DEPTH + "true;",
    "set query " + "{'a': " * DEPTH + "{}" + "}" * DEPTH + ";",
    "library add set constant c = " + "(" * DEPTH + "{}" + ")" * DEPTH + ";",
], ids=["parentheses", "not", "enumerate", "library-add"])
def test_deep_nesting_is_refused_and_the_session_goes_on(command):
    session = make_session(show_time=False)
    output = session.run_command(command)
    assert output.startswith(NOT_WELL_FORMED + "\n\nError at character ")
    assert "expected a less deeply nested expression:" in output
    assert output.endswith(" <-------")
    assert session.run_command("set query { 'a':{} };") == \
        WELL_TYPED + "\n\nResult = {'a':{}}"
    stream_out = io.StringIO()
    repl(session, io.StringIO(command + "\nset query {};\n"), stream_out)
    assert "less deeply nested" in stream_out.getvalue()
    assert "Result = {}" in stream_out.getvalue()


def test_session_isolation():
    library = evaluator.predefined_library()
    sizes = len(library.declarations), len(library.scope)
    script = ["set query { 'a':\"v\" };",
              "library add set constant k = { 'b':{} };",
              "set query k;"]
    outputs = []
    for _ in range(2):
        session = make_session(show_time=False)
        outputs.append([session.run_command(cmd) for cmd in script])
    assert outputs[0] == outputs[1]
    # a `library add` extends only its own session; the predefined library
    # that every session starts from is left as it was
    fresh = make_session()
    assert fresh.evaluator.library is library
    assert "occurrence of identifier name k not declared" in fresh.run_command("set query k;")
    assert (len(library.declarations), len(library.scope)) == sizes


def test_sessions_share_the_compiled_library_but_not_its_memos():
    # each session interns {} and then its pair-like set, so the two sets
    # get the same class id in their sessions while they differ
    pair = "boolean query call isPair({ 'fst':{}, 'snd':{} });"
    not_pair = "boolean query call isPair({ 'fst':{}, 'x':{} });"
    first, second = make_session(show_time=False), make_session(show_time=False)
    assert first.run_command(pair) == WELL_TYPED + "\n\nResult = true"
    assert second.run_command(not_pair) == WELL_TYPED + "\n\nResult = false"
    closures = [s.evaluator.library_env["isPair"] for s in (first, second)]
    assert closures[0].body is closures[1].body  # compiled once per process
    assert list(closures[0].memo) == list(closures[1].memo) == [(1,)]
    assert [list(c.memo.values()) for c in closures] == [[True], [False]]
    # each memo keeps answering for its own session
    assert first.run_command(pair) == WELL_TYPED + "\n\nResult = true"
    assert second.run_command(not_pair) == WELL_TYPED + "\n\nResult = false"
    assert second.run_command(pair) == WELL_TYPED + "\n\nResult = true"


def test_deep_query_calls_are_refused_and_the_session_goes_on():
    session = make_session(show_time=False)
    chain = ["set query f0 (set x) be { 'a':x }"] + [
        "set query f%d (set x) be call f%d({ 'a':x })" % (i, i - 1) for i in range(1, 350)]
    assert LIBRARY_OK in session.run_command("library add " + ",\n".join(chain) + ";")
    assert session.run_command("set query call f349({});") == \
        "Query failed: query calls nested too deeply"
    follow_up = "boolean query %s#b2 = %s#p3;" % (F1, F2)
    assert session.run_command(follow_up) == \
        make_session(show_time=False).run_command(follow_up)
    # f325({}) is {} wrapped in 326 'a's, the innermost printed as an atom
    assert session.run_command("set query call f325({});") == \
        WELL_TYPED + "\n\nResult = " + "{'a':" * 325 + '"a"' + "}" * 325
    stream_out = io.StringIO()
    repl(session, io.StringIO("set query call f349({});\nset query {};\n"), stream_out)
    assert stream_out.getvalue() == ("Query failed: query calls nested too deeply\n\n"
                                     + WELL_TYPED + "\n\nResult = {}\n\n")
    # a call deep inside its body counts for the frames around it: here a
    # level takes four, and 250 levels would overflow the stack if each
    # counted as one
    wrapped = ["set query g0 (set x) be x"] + [
        "set query g%d (set x) be { 'a':{ 'b':{ 'c':call g%d(x) } } }" % (i, i - 1)
        for i in range(1, 251)]
    assert LIBRARY_OK in session.run_command("library add " + ",\n".join(wrapped) + ";")
    assert session.run_command("set query call g250({});") == \
        "Query failed: query calls nested too deeply"
    assert session.run_command("set query call g20({});").startswith(
        WELL_TYPED + "\n\nResult = {'a':{'b':{'c':{'a':")


def test_a_query_failing_inside_a_formula_leaves_nothing_behind():
    # the failing equality runs inside the `where` formula, where set calls
    # are memoized; the next query's calls lie in a term and run afresh
    session = make_session(show_time=False)
    assert session.run_command(
        "set query separate { l:x in {'a':{}} where "
        "(call Pair(x, {}) = {} or mem://missing.xml#y = {}) };") == \
        "Query failed: no such document: mem://missing.xml"
    pairs = "set query { 'p':call Pair({}, {}), 'q':call Pair({}, {}) };"
    assert session.run_command(pairs) == make_session(show_time=False).run_command(pairs) == \
        WELL_TYPED + "\n\nResult = {'p':{'fst':{}, 'snd':{}}, 'q':{'fst':{}, 'snd':{}}}"


def _collected(term: str, depth: int) -> str:
    for i in range(depth):
        term = "collect { 'a':%s where l%d:y%d in {'k':{}} }" % (term, i, i)
    return term


def test_calls_in_helper_functions_keep_the_memo_rule_and_the_depth_budget():
    # 17 nested loops put the calls past _MAX_BLOCKS, in a helper function
    session = make_session(show_time=False)
    deep = "set query Deep (set x) be %s" % _collected(
        "{ 'p':call Pair(x, x), 'q':call Pair(x, x) }", 17)
    assert LIBRARY_OK in session.run_command("library add %s;" % deep)
    assert session.run_command("set query call Deep({});") == \
        WELL_TYPED + "\n\nResult = " + "{'a':" * 17 + \
        "{'p':{'fst':{}, 'snd':{}}, 'q':{'fst':{}, 'snd':{}}}" + "}" * 17
    chain = ["set query h0 (set x) be x"] + [
        "set query h%d (set x) be %s" % (i, _collected("call h%d(x)" % (i - 1), 17))
        for i in range(1, 31)]
    assert LIBRARY_OK in session.run_command("library add " + ",\n".join(chain) + ";")
    assert session.run_command("set query call h10({});").startswith(
        WELL_TYPED + "\n\nResult = {'a':")
    assert session.run_command("set query call h30({});") == \
        "Query failed: query calls nested too deeply"


# identifiers that are Python keywords, builtins, names the generated code
# uses, or no Python identifier at all; the replies are those of the closure
# evaluator that generated code replaced
COLLIDING_IDENTIFIERS = [
    ("set query let set constant def = { 'a':{}, 'b':{ 'c':{} }, 'b':\"ev\" }, "
     "label constant lambda = 'b', "
     "set query None (set ev, label env) be separate { x-1:1x in ev where x-1 = env } "
     "in call None(def, lambda) endlet;",
     WELL_TYPED + "\n\nResult = {'b':\"c\", 'b':\"ev\"}"),
    ("boolean query let set constant v0 = { 'p':{ 'q':{} }, 'r':{} } in "
     "exists def:lambda in v0 . ( def = 'p' and "
     "forall None:ev in lambda . ( None = 'q' and ev = {} ) ) endlet;",
     WELL_TYPED + "\n\nResult = true"),
    ("set query let set constant env = { 'k':{ 'a':{} }, 'm':{} } in "
     "collect { ev:{ 'in':x-1 } where ev:x-1 in env and exists 1x:v0 in x-1 . 1x = 'a' } "
     "endlet;",
     WELL_TYPED + "\n\nResult = {'k':{'in':\"a\"}}"),
    ("set query let set constant 1x = { 'a':{ 'b':{} }, 'c':{} } in "
     "recursion ev { None:def in TC(1x) where "
     "( None = 'null' or exists lambda:env in ev . 'b':def in env ) } endlet;",
     WELL_TYPED + "\n\nResult = {'null':{'a':\"b\", 'c':{}}}"),
    ("library add set query def (set lambda) be { 'wrapped':lambda }, "
     "boolean query ev (set env, set v0) be env = v0, "
     "set constant None = { 'n':{} }, label constant x-1 = 'n', "
     "set query 1x (set def, label x-1) be separate { x-1:v0 in def where true };",
     LIBRARY_OK + "\n\nWarning, library command successful but no query executed."),
    ("set query call def(call def(None));",
     WELL_TYPED + "\n\nResult = {'wrapped':{'wrapped':\"n\"}}"),
    ("boolean query call ev(call def(None), { 'wrapped':{ 'n':{} } });",
     WELL_TYPED + "\n\nResult = true"),
    ("set query call 1x(None, x-1);", WELL_TYPED + "\n\nResult = {'n':{}}"),
    ("set query let set constant v0 = { 'z':{} } in call def(v0) endlet;",
     WELL_TYPED + "\n\nResult = {'wrapped':\"z\"}"),
    ("boolean query let set query ev (set env) be { 'e':env } in "
     "call ev({}) = { 'e':{} } endlet;",
     WELL_TYPED + "\n\nResult = true"),
]


def test_identifiers_that_collide_with_python_or_generated_code():
    session = make_session(show_time=False)
    for command, expected in COLLIDING_IDENTIFIERS:
        assert session.run_command(command) == expected, command


def _declared_chain(depth: int) -> str:
    """A boolean query whose body nests depth quantifiers, each over the
    previous variable, and then calls a library query."""
    binders = "".join("exists l%d:x%d in %s . " % (i, i + 1, "x%d" % i if i else "s")
                      for i in range(depth))
    return "boolean query Chain (set s) be %s(%s and call isPair(x%d))" % (
        binders, " and ".join("l%d = l%d" % (i, i) for i in range(depth)), depth)


def _wrapped(term: str, depth: int) -> str:
    for _ in range(depth):
        term = "{ 'a':%s, 'b':{} }" % term
    return term


def test_deep_shapes_are_answered():
    # past CPython's 20 statically nested blocks, its 100 indentation levels
    # and its 200 nested parentheses; replies as the closure evaluator gave
    chain = "".join("exists l:x%d in x%d . " % (i + 1, i) for i in range(400))
    cases = [
        ("boolean query let set constant x0 = { 'a':{ 'b':{} } } in %s true endlet;"
         % chain, "Result = false"),
        ("boolean query let set constant x0 = { 'a':{ 'a':{} } } in "
         + "".join("exists l:x%d in x0 . " % (i + 1) for i in range(400))
         + "true endlet;", "Result = true"),
        ("boolean query " + "not " * 400 + "true;", "Result = true"),
        ("boolean query " + "not " * 399 + "true;", "Result = false"),
        ("set query " + "{'a': " * 300 + "{}" + "}" * 300 + ";",
         "Result = " + "{'a':" * 299 + '"a"' + "}" * 299),
        ("library add %s;" % _declared_chain(25), None),
        ("boolean query call Chain(%s);" % _wrapped("{ 'fst':{}, 'snd':{} }", 25),
         "Result = true"),
        ("boolean query call Chain(%s);" % _wrapped("{ 'fst':{}, 'x':{} }", 25),
         "Result = false"),
        ("boolean query call Chain(%s);" % _wrapped("{ 'fst':{}, 'snd':{} }", 24),
         "Result = false"),
    ]
    session = make_session(show_time=False)
    for command, expected in cases:
        output = session.run_command(command)
        if expected is None:
            assert output.startswith(LIBRARY_OK), output
        else:
            assert output == WELL_TYPED + "\n\n" + expected, command[:80]


@pytest.mark.parametrize("make", [
    lambda depth: "set query " + "U " * depth + "{};",
    lambda depth: "set query " + "tc " * depth + "{};",
    lambda depth: "boolean query " + "not " * depth + "true;",
    lambda depth: "set query " + "if true then " * depth + "{}" + " else {} fi" * depth + ";",
    lambda depth: "library add set constant c = " + "U " * depth + "{};",
], ids=["union", "tc", "not", "if", "library-add"])
def test_nests_too_deep_to_compile_are_refused(make):
    # the parser takes about two frames per level and the code generator
    # about three, so some of these parse but cannot be compiled
    session = make_session(show_time=False)
    for depth in (300, 350, 400, 500, 650):
        sources, library = set(evaluator._SOURCES), session.evaluator.library
        output = session.run_command(make(depth))
        if output.startswith(("Query failed: ", "Library command failed: ")):
            assert output.endswith(": query nested too deeply to compile"), output
            assert set(evaluator._SOURCES) == sources
            assert session.evaluator.library is library
        else:
            assert output.startswith((WELL_TYPED, LIBRARY_OK, NOT_WELL_FORMED)), output[:200]
        assert session.run_command("set query {};") == WELL_TYPED + "\n\nResult = {}"


def test_flags_parsing():
    config = build_flags(["--oracle", "127.0.0.1:9999", "--use-approximations",
                          "--no-network", "--script", "cmds.txt", "--no-time"])
    assert config.oracle == "127.0.0.1:9999"
    assert config.use_approximations is True
    assert config.allow_network is False
    assert config.script == "cmds.txt"
    assert config.show_time is False


def test_unknown_flag_rejected():
    for flags in (["--bogus"], ["--time"], ["--oracle", "localhost"],
                  ["--oracle", "h:abc"], ["--oracle", "h:70000"]):
        with pytest.raises(SystemExit) as exit_info:
            build_flags(flags)
        assert exit_info.value.code == 2


def test_session_config_with_a_bad_oracle_address_is_refused():
    with pytest.raises(ValueError, match="HOST:PORT"):
        Session(SessionConfig(oracle="localhost"))


def test_unreadable_script_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cli"
    assert cli.main(["--script", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "hypersetdb: error: cannot read --script %s: No such file or directory" % missing]


def test_script_runs_until_exit(tmp_path, capsys):
    script = tmp_path / "commands.cli"
    script.write_text("set query {};\nexit;\nset query { 'x':{} };\n", encoding="utf-8")
    assert cli.main(["--script", str(script), "--no-time", "--no-network"]) == 0
    captured = capsys.readouterr()
    assert captured.out == WELL_TYPED + "\n\nResult = {}\n\n"
    assert captured.err == ""


def test_no_network_blocks_http(tmp_path):
    session = Session(SessionConfig(allow_network=False))
    output = session.run_command("set query http://example.org/f.xml#x;")
    assert "network disabled" in output


# -- the oracle is advisory ------------------------------------------------------

class _FaultyOracle(socketserver.StreamRequestHandler):
    """Replies `server.reply` to every request line; None closes at once."""

    def handle(self) -> None:
        if self.server.reply is None:
            return
        for _ in self.rfile:
            self.wfile.write(self.server.reply)


@contextlib.contextmanager
def faulty_oracle(reply):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _FaultyOracle)
    server.daemon_threads = True
    server.reply = reply
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield "127.0.0.1:%d" % server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


@contextlib.contextmanager
def refused_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % probe.getsockname()[1]
    yield address  # nothing listens there any more


@pytest.mark.parametrize("oracle", [
    refused_port,
    lambda: faulty_oracle(None),
    lambda: faulty_oracle(b"BANANA\n"),
    lambda: faulty_oracle(b"ERROR malformed request\n"),
], ids=["refused", "closes", "garbled", "error-reply"])
def test_failing_oracle_does_not_fail_the_query(oracle):
    with oracle() as address:
        session = make_session(oracle=address, show_time=False)
        try:
            assert session.oracle_client.ask(SetName(F1, "b2"), SetName(F2, "p3")) \
                is OracleValue.UNKNOWN
            equal = session.run_command("boolean query %s#b2 = %s#p3;" % (F1, F2))
            unequal = session.run_command("boolean query %s#b1 = %s#p1;" % (F1, F2))
        finally:
            session.close()
    assert "Result = true" in equal
    assert "Result = false" in unequal


def test_benchmark_hook_points_exist(monkeypatch):
    """perfbench wraps functions of cli, evaluator, bisim, engine, xmlwdb and
    approx by name; renaming or dropping one fails here with a KeyError."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import Tracer, installed
    original = cli.parse
    with installed(Tracer()) as tracer:
        assert cli.parse is not original
        assert WELL_TYPED in make_session().run_command("set query {};")
    assert cli.parse is original
    assert {"library", "parser", "analysis", "evaluator"} <= {span[0] for span in tracer.spans}


# a generated name printed at a reference site or heading an equation below
_GENERATED_REF = re.compile(r"(?:(?<=:)|^)([A-Za-z_][\w-]*)(?=[,}]| = |$)", re.M)


def renumbered(output: str) -> str:
    """The output with generated names renamed g0, g1, ... in order of first
    appearance."""
    names = {}

    def rename(match):
        name = match.group(1)
        if name == "Result":
            return name
        return names.setdefault(name, "g%d" % len(names))
    return _GENERATED_REF.sub(rename, output)


@pytest.mark.parametrize("term", [
    "{ 'a':call Pair(BibDB, BibDB), 'b':call Pair(BibDB, BibDB) }",
    "call HorizontalTC(call LabelledPairs(BibDB))",
], ids=["pair-pair", "horizontal-tc"])
def test_memoized_calls_leave_later_output_unchanged(term):
    let = "set query let set constant BibDB = %s#BibDB in %%s endlet;" % F1
    session = make_session(show_time=False)
    assert WELL_TYPED in session.run_command(let % "call StrictLinOrder_on_TC(BibDB)")
    after = session.run_command(let % term)
    fresh = make_session(show_time=False).run_command(let % term)
    assert WELL_TYPED in fresh
    assert renumbered(after) == renumbered(fresh)


def test_demo_script_runs_its_queries():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(root / "scripts" / "demo_bibdb.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    blocks = done.stdout.split("\n>>> ")[1:]
    queries = [b for b in blocks if b.split(None, 2)[1] == "query"]
    # the first query is the demo's deliberately ill-typed one
    assert NOT_WELL_TYPED in queries[0]
    assert len(queries) == 3
    for block in queries[1:]:
        assert WELL_TYPED in block and "Result = " in block
