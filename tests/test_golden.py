"""Golden replies: the exact rendered output of a corpus of query sessions,
and the number of generated equations after each command, recorded before
analyzed queries were compiled to closures.  The equation counts show that
names are allocated in the same order.

The corpus holds the query strings of `tests/test_evaluator.py` and
`tests/test_cli.py` (random stores replaced by the BibDB example), the
bib-session commands of the benchmark at seeds 101-103, the criterion-8
pair on p1 and on BibDB, and quantifiers over unions that repeat their
elements (recorded while quantifiers visited every element, repeats
included, as they do again).  To record the replies again, for a change
meant to alter them:

    PYTHONPATH=src:tests:. python tests/test_golden.py --record
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import pytest

from hypersetdb.cli import Session, SessionConfig
from hypersetdb.store import FileFetcher, MemoryFetcher

from conftest import bibdb_f1_text, bibdb_f2_text
from test_cli import GOLDEN_DIAGNOSTICS
from test_evaluator import BIBDB_QUERIES, FIVE_EDGE_GRAPH, LET_PROBE

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_replies.json")
F1 = "mem://BibDB-f1.xml"
F2 = "mem://BibDB-f2.xml"
BAD_HREF = """<set:eqns xmlns:set="http://www.csc.liv.ac.uk/~molyneux/XML-WDB">
  <set:eqn set:id="x"><a set:href="local://session#res"/></set:eqn>
</set:eqns>"""


def _random_graphs(count: int) -> List[str]:
    """Decorations of small random graphs, drawn as the decorate test does."""
    rng = random.Random(8)

    def node():
        letter, roll = rng.choice("abc"), rng.random()
        if roll < 0.15:
            return "{}"
        return "{'%s':{}}" % letter if roll < 0.3 else '"%s"' % letter

    queries = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(0, 8)):
            label = rng.choice(["l0", "l1", "null"])
            x, y, z = node(), node(), node()
            parts.append(rng.choice([
                "'null':call Pair(%s, %s)" % (x, y),
                "'%s':{'fst':%s, 'k':%s, 'snd':%s}" % (label, x, z, y),
                "'%s':{'fst':%s, 'snd':%s, 'fst':%s}" % (label, x, y, z),
                "'%s':{'snd':%s, 'k':%s}" % (label, y, z),
                "'%s':%s" % (label, x)]))
        queries.append("set query let set constant g = { %s } in decorate (g, %s) endlet;"
                       % (", ".join(parts), node()))
    return queries


def _wildcards(count: int) -> List[str]:
    rng = random.Random(3)
    return ["boolean query '%s' = '*%s*';"
            % ("".join(rng.choice("abc") for _ in range(rng.randint(1, 6))),
               "".join(rng.choice("abc") for _ in range(rng.randint(1, 3))))
            for _ in range(count)]


EVALUATOR_QUERIES = [
    "set query {} ;",
    "set query { 'name':\"Jack\", 'null':{} };",
    "set query { 'a':\"X\" };",
    "set query { 'b':\"X\" };",
    "set query let set constant s = { 'a':{}, 'b':{} } in union { 'l':s } endlet;",
    "set query ( { 'a':{} } U { 'b':{} } U { 'c':{} } );",
    "set query if true then { 'a':{} } else http://nowhere/missing.xml#x fi;",
    "set query if false then { 'a':{} } else http://nowhere/missing.xml#x fi;",
    "set query let set constant a = { 'x':{} }, set constant b = a in b endlet;",
    "set query call Pair({ 'a':{} }, {});",
    "boolean query 'Robert' = 'Rob*';",
    "boolean query 'Robert' = 'Rob';",
    "boolean query 'Databases' = '*base*';",
    "boolean query '*base*' = 'Databases';",
    "boolean query 'Jones' = '*s';",
    "boolean query 'Jones' = '*x';",
    "boolean query 'book' < 'paper';",
    "boolean query 'paper' < 'book';",
    "boolean query 'a' <= 'a';",
    "boolean query 'b' >= 'c';",
    "boolean query 'b' > 'a';",
] + _wildcards(12) + [
    "boolean query let label constant l='Rob' in 'Robert' = l* endlet;",
    "boolean query let label constant l='bert' in 'Robert' = *l endlet;",
    "boolean query let label constant l='ber' in *l* = 'Robert' endlet;",
    "boolean query (false and 'l':{} in http://nowhere/x.xml#y);",
] + ["boolean query (%s or %s);" % (a, b) for a in ("true", "false")
     for b in ("true", "false")] + [
    "boolean query not (not %s and not %s);" % (a, b) for a in ("true", "false")
    for b in ("true", "false")] + [
    "boolean query (false => false <=> true);",
    "boolean query (true <=> false => false);",
    "boolean query (true implies false iff false <= true);",
    "boolean query let set constant s = { 'a':{}, 'b':{} } in "
    "exists l:x in s . l='a' endlet;",
    "boolean query let set constant s = { 'a':{}, 'b':{} } in "
    "not forall l:x in s . not l='a' endlet;",
    "boolean query 'refers-to':%s#b2 in %s#p2;" % (F1, F2),
    "boolean query 'l':{} in {};",
    "boolean query 'l':{ 'a':{} } in { 'l':{ 'a':{} }, 'm':{} };",
    "boolean query 'l':{ 'a':{} } in { 'm':{}, 'l':{ 'a':{} }, 'l':{ 'a':{} }, 'm':{} };",
    "set query separate { pub:p in %s#BibDB where pub='book' };" % F1,
    "set query let set constant t = { 'a':{}, 'b':{} } in "
    "separate { l:x in t where false } endlet;",
    "set query let set constant t = { 'a':{}, 'b':{} } in "
    "separate { l:x in t where true } endlet;",
    "set query let set constant t = { 'a':{}, 'b':{ 'c':{} } } in "
    "collect { l:x where l:x in t } endlet;",
    "set query { 'a':{}, 'b':{ 'c':{} } };",
    "set query call CartProduct({ 'l':{} }, { 'm':{ 'a':{} }, 'n':{ 'b':{} } });",
    "set query let set constant t = { 'a':{}, 'b':{} } in "
    "recursion p { l:x in t where l='a' } endlet;",
    "set query let set constant t = { 'a':{}, 'b':{ 'a':{} } } in "
    "recursion p { l:x in t where ( l='a' or exists m:y in p . 'a':y in t ) } endlet;",
    "set query TC {};",
    'set query let set constant g = { \'null\':call Pair("a","a") } in '
    'TC decorate (g, "a") endlet;',
    "set query TC %s#BibDB;" % F1,
    'set query let set constant g = { \'null\':call Pair("a","a") } in '
    'decorate (g, "a") endlet;',
    "set query " + FIVE_EDGE_GRAPH % 'decorate (g, "a")',
    "boolean query " + FIVE_EDGE_GRAPH % 'decorate (g, "a") = decorate (g, "b")',
    "set query decorate ({}, { 'v':{} });",
    "set query " + FIVE_EDGE_GRAPH % 'call Can ( decorate (g, "a") )',
    "set query " + FIVE_EDGE_GRAPH % 'call Can ( call Can ( decorate (g, "a") ) )',
] + _random_graphs(12) + [
    "set query { 'g':{ 'null':call Pair(\"a\",\"b\"), 'null':call Pair(\"b\",\"a\"), "
    "'null':call Pair(\"e\",\"a\") }, 'v':\"a\" };",
    "set query separate { l:x in %s#BibDB where ('l0':x in %s#BibDB or x=x) };" % (F1, F1),
    "set query separate { l:x in %s#p2 where ('author':x in %s#p3 or x=x) };" % (F2, F2),
    "library add set query NonEmptyMembers (set x) be "
    "collect { 'k':y where l:y in x and exists m:z in y . true }, "
    "boolean query HasL0Twin (set x) be exists l:y in x . 'l0':y in x, "
    "boolean query Deep (set x) be exists l:y in x . exists m:z in y . true;",
] + ["boolean query call NonEmptyMembers(%s) = call NonEmptyMembers(%s);" % (n, n)
     for n in ("%s#b2" % F1, "%s#p3" % F2, "%s#b1" % F1, "%s#p1" % F2)] + [
    "set query call NonEmptyMembers(%s#b1);" % F1,
    "set query call NonEmptyMembers(%s#b1);" % F1,
    "boolean query call HasL0Twin(%s#b2);" % F1,
    "boolean query call HasL0Twin(%s#p3);" % F2,
    "boolean query call Deep(%s#b1);" % F1,
    "boolean query call Deep(%s#BibDB);" % F1,
    "set query let set constant a = { 'v':{} }, set constant t = { 'y1':{}, 'n1':{}, "
    "'y2':{}, 'n2':{} } in collect { l:if l = 'y*' then %s else %s fi where l:e in t } "
    "endlet;" % (LET_PROBE % "{ 'v':{} }", LET_PROBE % "{ 'w':{} }"),
    "set query { 'a':{ 'b':{}, 'c':{} } };",
    "set query { 'a':{ 'b':{} } };",
    "set query let set constant shared = { 'x':{}, 'y':{} } in "
    "{ 'p':shared, 'q':shared } endlet;",
    "set query let set constant t = { 'a':{}, 'b':{}, 'c':{} } in "
    "recursion q { l:x in t where (l='a' or exists m:y in q . true) } endlet;",
    BIBDB_QUERIES[0],
    "set query call TC_along_label('refers-to', %s#b1);" % F1,
    "boolean query call isPair(call Pair(%s#b2, %s#p3));" % (F1, F2),
    "boolean query call isPair(call Pair({}, {}));",
    "boolean query if %s#b2 = %s#p3 then 'a' < 'b' else false fi;" % (F1, F2),
    "boolean query let set constant k = %s#b1 in forall l:x in k . "
    "exists m:y in %s#BibDB . x = y endlet;" % (F1, F1),
    "set query let set query Twice (set x, label l) be { l:x, l:x } in "
    "call Twice(%s#b2, 'z') endlet;" % F1,
    "set query http://nowhere/missing.xml#x;",
]


# Quantifiers over unions that repeat their elements.  Each answer names the
# generated sets s and d, so the names and the equation counts show how often
# every body ran: a body that mints names must run once per duplicate.
_REPEATS = ("set query let set constant e = {}, "
            "set query Tag (label k, set v) be { k:v }, "
            "set constant s = { 'a':{ 'p':\"v\" }, 'b':e, 'a':{ 'q':e } }, "
            "set constant d = ( s U s U s ) in "
            "if %s then { 'x':s, 'y':s, 'z':d } else { 'x':d, 'y':d } fi endlet;")
# names of documents not yet loaded: the first run of an element fetches, so
# a later run of the same element has other call-memo keys
_REPEATS_FETCHING = ("set query let set constant e = {}, "
                     "set constant s = { 'r':%s#b2, 'r':%s#p3 }, "
                     "set constant d = ( s U s ) in "
                     "if %%s then { 'x':s, 'y':s } else { 'x':d, 'y':d } fi endlet;"
                     % (F1, F2))
REPEATED_ELEMENTS = [
    _REPEATS_FETCHING % "exists l:x in d . call Pair(x, x) = call Pair(x, e)",
] + [_REPEATS % formula for formula in (
    # (a) bodies free of anything that mints a name
    "exists l:x in d . ('p':\"v\" in x and l = 'b')",
    "forall l:x in d . exists m:y in d . (x = y => l = m)",
    "forall l:x in d . if 'p':\"w\" in x then false else true fi",
    # (b) bodies that mint names on every run
    "forall l:x in d . not { 'k':x } = x",
    "exists l:x in d . collect { m:y where m:y in x } = { 'zz':e }",
    "exists l:x in d . let set query C (set i) be { 'c':i } in call C(x) = x endlet",
    # (c) set query calls on identifier arguments
    "exists l:x in d . call Pair(x, s) = call Pair(s, x)",
    "forall l:x in d . call Pair(x, e) = call Pair(x, e)",
    "exists l:x in d . 'b':x in call Tag(l, x)",
    "forall l:x in d . not 'b':x in call Tag(l, x)")]


def _cli_commands() -> List[str]:
    let = "set query let set constant BibDB = %s#BibDB in %%s endlet;" % F1
    graph = ("let set constant g = { 'null':call Pair(\"a\",\"b\"), "
             "'null':call Pair(\"b\",\"a\"), 'null':call Pair(\"a\",\"d\") } in %s endlet;")
    return [
        "set query { 'a':{} };",
        "set query {};",
        "set query call Pair({}, {});",
        "boolean query call isPair(call Pair({}, {}));",
    ] + [command for command, _ in GOLDEN_DIAGNOSTICS] + [
        "set query { 'k': {} };",
        "set query mem://d.xml#x;",
        "library list;",
        "library add set constant some_book = %s#b1;" % F1,
        "library add set constant some_book = %s#b2;" % F1,
        "library list;",
        "boolean query some_book = %s#b2;" % F1,
        "library add set constant a = { 'x':{} }, set query P (set q) be { 'p':q, 'a':a };",
        "set query call P({});",
        "library add set constant b = { 'c':c }, set constant c = {};",
        "library add set constant c = { 'v1':{} };",
        "library add set query useC (set ignored) be c;",
        "library add set constant c = { 'v2':{} };",
        "set query call useC({});",
        "set query " + graph % 'decorate (g, "a")',
        "set query " + graph % 'call Can ( decorate (g, "a") )',
        "library add set query Regroup (set g) be {};",
        "set query " + graph % 'decorate (g, "a")',
        "set query call Regroup(%s#b1);" % F1,
        "library add set constant k = { 'library':{} };",
        "set query let set constant k = { 'query':{} }, "
        "set query Pair (set x,set y) be { 'mine':x } in "
        "{ 'k':k, 'p':call Pair({}, {}) } endlet;",
        "set query k;",
        "library add set constant gone = union mem://missing.xml#x;",
        "library list verbose;",
        BIBDB_QUERIES[0],
        "boolean query %s#b2 = %s#p3;" % (F1, F2),
        "boolean query %s#b1 = %s#p1;" % (F1, F2),
        let % "call StrictLinOrder_on_TC(BibDB)",
        let % "{ 'a':call Pair(BibDB, BibDB), 'b':call Pair(BibDB, BibDB) }",
        let % "call HorizontalTC(call LabelledPairs(BibDB))",
        "set query http://example.org/f.xml#x;",
    ]


def _criterion_8(root: str) -> List[str]:
    return ["set query let set constant BibDB = %s in "
            "call StrictLinOrder_on_TC(BibDB) endlet;" % root,
            "set query let set constant BibDB = %s in "
            "call SuccessorPairs( call StrictLinOrder_on_TC(BibDB) ) endlet;" % root]


def _bibdb_session() -> Session:
    fetcher = MemoryFetcher({F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2),
                             "mem://d.xml": BAD_HREF})
    return Session(SessionConfig(show_time=False, allow_network=False), fetcher=fetcher)


def _replies(session: Session, commands: List[str], placeholder=None) -> List[list]:
    out = []
    for command in commands:
        reply = session.run_command(command)
        generated = sum(1 for name in session.store.system.equations if name.is_local())
        if placeholder is not None:
            command, reply = (text.replace(*placeholder) for text in (command, reply))
        out.append([command, reply, generated])
    return out


def render_corpus() -> Dict[str, List[list]]:
    """Every session of the corpus: [command, reply, generated equations]."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import inputs

    corpus = {
        "evaluator": _replies(_bibdb_session(), EVALUATOR_QUERIES),
        "cli": _replies(_bibdb_session(), _cli_commands()),
        "criterion-8 p1": _replies(_bibdb_session(), _criterion_8(F2 + "#p1")),
        "criterion-8 BibDB": _replies(_bibdb_session(), _criterion_8(F1 + "#BibDB")),
        "repeated elements": _replies(_bibdb_session(), REPEATED_ELEMENTS),
        "repeated elements, fetching": _replies(_bibdb_session(), [
            _REPEATS_FETCHING % "forall l:x in d . not call Pair(x, x) = call Pair(x, e)"]),
    }
    for seed in (101, 102, 103):
        rng = random.Random("bib-session/%d" % seed)
        with tempfile.TemporaryDirectory() as directory:
            wdb = inputs.bibdb(rng, Path(directory))
            commands = [c.text for c in inputs.bib_commands(wdb, rng)]
            session = Session(SessionConfig(show_time=False, allow_network=False),
                              fetcher=FileFetcher(allow_network=False))
            corpus["bib-session %d" % seed] = _replies(
                session, commands, (Path(directory).as_uri(), "file:///<wdb>"))
    return corpus


@pytest.fixture(scope="module")
def rendered():
    return render_corpus()


def _golden() -> Dict[str, List[list]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["evaluator", "cli", "criterion-8 p1", "criterion-8 BibDB",
                                  "bib-session 101", "bib-session 102",
                                  "bib-session 103", "repeated elements",
                                  "repeated elements, fetching"])
def test_golden_replies(rendered, name):
    expected = _golden()[name]
    got = rendered[name]
    assert [c for c, _, _ in got] == [c for c, _, _ in expected]
    for (command, reply, generated), (_, want, want_generated) in zip(got, expected):
        assert (reply, generated) == (want, want_generated), command


def test_golden_replies_identical_across_hash_seeds():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]))
    outputs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run(
            [sys.executable, "-c", "import json, test_golden; "
             "print(json.dumps(test_golden.render_corpus(), sort_keys=True))"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1] == _golden()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(render_corpus(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
