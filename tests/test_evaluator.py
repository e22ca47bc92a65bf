import ast
import itertools
import random

import pytest

from hypersetdb import evaluator as evaluator_module
from hypersetdb.analysis import analyze, expand_library
from hypersetdb.bisim import FactStore, naive_bisimulation
from hypersetdb.evaluator import Evaluator, QueryResult, postprocess
from hypersetdb.library import PREDEFINED_DECLARATIONS
from hypersetdb.names import LOCAL_URL, Element, EquationSystem, SetName
from hypersetdb.parser import parse
from hypersetdb.store import FetchError, MemoryFetcher, SessionStore
from hypersetdb.xmlwdb import from_equations

from conftest import (
    bibdb_f1_text, bibdb_f2_text, duplicate_and_shuffle, random_closed_system,
)

F1 = "mem://BibDB-f1.xml"
F2 = "mem://BibDB-f2.xml"


def make_evaluator(documents=None) -> Evaluator:
    store = SessionStore(MemoryFetcher(documents or {}))
    return Evaluator(store)


def run(evaluator: Evaluator, source: str) -> QueryResult:
    tree = analyze(parse(source), evaluator.library)
    return evaluator.eval_query(tree)


def declare(evaluator: Evaluator, *declarations: str) -> None:
    """Add declarations to the evaluator's library, as `library add` does."""
    tree = analyze(parse("library add " + ",\n".join(declarations) + ";"),
                   evaluator.library)
    evaluator.add_library(tree.children[1], list(declarations))


def bibdb_evaluator() -> Evaluator:
    return make_evaluator({F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2)})


def elements_of(evaluator: Evaluator, result: QueryResult):
    return evaluator.store.system[result.root]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def test_empty_set_query():
    ev = make_evaluator()
    result = run(ev, "set query {} ;")
    assert elements_of(ev, result) == []


def test_enumeration_and_atoms():
    ev = make_evaluator()
    result = run(ev, 'set query { \'name\':"Jack", \'null\':{} };')
    elements = elements_of(ev, result)
    assert [el.label for el in elements] == ["name", "null"]
    atom = ev.store.system[elements[0].member]
    assert len(atom) == 1 and atom[0].label == "Jack"
    assert ev.store.system[atom[0].member] == []


def test_atoms_are_reused_within_the_session():
    ev = make_evaluator()
    first = run(ev, 'set query { \'a\':"X" };')
    second = run(ev, 'set query { \'b\':"X" };')
    a = elements_of(ev, first)[0].member
    b = elements_of(ev, second)[0].member
    assert a == b


def test_union_law_union_of_singleton_is_identity():
    ev = make_evaluator()
    result = run(ev, "set query let set constant s = { 'a':{}, 'b':{} } in "
                     "union { 'l':s } endlet;")
    rhs = elements_of(ev, result)
    assert sorted(el.label for el in rhs) == ["a", "b"]


def test_multiple_union_concatenates_right_hand_sides():
    ev = make_evaluator()
    result = run(ev, "set query ( { 'a':{} } U { 'b':{} } U { 'c':{} } );")
    assert sorted(el.label for el in elements_of(ev, result)) == ["a", "b", "c"]


def test_if_else_term_evaluates_selected_branch_only():
    ev = make_evaluator()
    result = run(ev, "set query if true then { 'a':{} } else "
                     "http://nowhere/missing.xml#x fi;")
    assert [el.label for el in elements_of(ev, result)] == ["a"]
    # the dead branch would have required a fetch of a missing document
    assert ev.store.fetcher.fetch_count == 0


def test_declarations_bind_in_order():
    ev = make_evaluator()
    result = run(ev, "set query let set constant a = { 'x':{} }, "
                     "set constant b = a in b endlet;")
    assert [el.label for el in elements_of(ev, result)] == ["x"]


def test_query_call_binds_parameters():
    ev = make_evaluator()
    result = run(ev, "set query call Pair({ 'a':{} }, {});")
    labels = sorted(el.label for el in elements_of(ev, result))
    assert labels == ["fst", "snd"]


# ---------------------------------------------------------------------------
# Label relations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("query,expected", [
    ("boolean query 'Robert' = 'Rob*';", True),
    ("boolean query 'Robert' = 'Rob';", False),
    ("boolean query 'Databases' = '*base*';", True),
    ("boolean query '*base*' = 'Databases';", True),
    ("boolean query 'Jones' = '*s';", True),
    ("boolean query 'Jones' = '*x';", False),
    ("boolean query 'book' < 'paper';", True),
    ("boolean query 'paper' < 'book';", False),
    ("boolean query 'a' <= 'a';", True),
    ("boolean query 'b' >= 'c';", False),
])
def test_label_relations(query, expected):
    ev = make_evaluator()
    assert run(ev, query).boolean is expected


def test_wildcard_substring_agrees_with_independent_search():
    ev = make_evaluator()
    rng = random.Random(3)
    alphabet = "abc"
    for _ in range(40):
        hay = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        needle = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        result = run(ev, "boolean query '%s' = '*%s*';" % (hay, needle))
        # independent check: brute-force window scan
        found = any(hay[i:i + len(needle)] == needle
                    for i in range(len(hay) - len(needle) + 1))
        assert result.boolean is found


def test_label_variable_wildcard():
    ev = make_evaluator()
    assert run(ev, "boolean query let label constant l='Rob' in "
                   "'Robert' = l* endlet;").boolean is True


# ---------------------------------------------------------------------------
# Connectives and quantifiers
# ---------------------------------------------------------------------------

def test_conjunction_short_circuits():
    ev = bibdb_evaluator()
    # false and <fetching formula>: must not fetch
    assert run(ev, "boolean query (false and "
                   "'l':{} in http://nowhere/x.xml#y);").boolean is False
    assert ev.store.fetcher.fetch_count == 0


def test_disjunction_negation_duality():
    ev = make_evaluator()
    for a in ("true", "false"):
        for b in ("true", "false"):
            direct = run(ev, "boolean query (%s or %s);" % (a, b)).boolean
            rewritten = run(ev, "boolean query not (not %s and not %s);"
                            % (a, b)).boolean
            assert direct == rewritten


def test_quasi_implication_chain_is_left_associative():
    ev = make_evaluator()
    # (false => false <=> true) reads ((false => false) <=> true) = true
    assert run(ev, "boolean query (false => false <=> true);").boolean is True
    # right-associative reading would be (false => (false <=> true)) = true,
    # distinguish with a different chain:
    # (true <=> false => false): left = ((true <=> false) => false) = true
    assert run(ev, "boolean query (true <=> false => false);").boolean is True


def test_quantifier_duality():
    ev = make_evaluator()
    source_exists = ("boolean query let set constant s = { 'a':{}, 'b':{} } in "
                     "exists l:x in s . l='a' endlet;")
    source_forall = ("boolean query let set constant s = { 'a':{}, 'b':{} } in "
                     "not forall l:x in s . not l='a' endlet;")
    assert run(ev, source_exists).boolean is run(ev, source_forall).boolean is True


def test_membership_uses_bisimulation(bibdb=None):
    ev = bibdb_evaluator()
    # 'refers-to':b2 in p2 holds because p3 = b2
    source = ("boolean query 'refers-to':%s#b2 in %s#p2;" % (F1, F2))
    assert run(ev, source).boolean is True
    assert run(ev, "boolean query 'l':{} in {};").boolean is False


def test_membership_invariant_under_duplication():
    ev = make_evaluator()
    base = "boolean query 'l':{ 'a':{} } in { 'l':{ 'a':{} }, 'm':{} };"
    dup = ("boolean query 'l':{ 'a':{} } in "
           "{ 'm':{}, 'l':{ 'a':{} }, 'l':{ 'a':{} }, 'm':{} };")
    assert run(ev, base).boolean is run(ev, dup).boolean is True


# ---------------------------------------------------------------------------
# Separation / collection / recursion / TC
# ---------------------------------------------------------------------------

def test_separate_keeps_passing_elements_verbatim():
    ev = bibdb_evaluator()
    source = ("set query separate { pub:p in %s#BibDB where pub='book' };" % F1)
    result = run(ev, source)
    elements = elements_of(ev, result)
    assert [el.label for el in elements] == ["book", "book"]
    assert {el.member.simple for el in elements} == {"b1", "b2"}


def test_separate_false_and_true_conditions():
    ev = make_evaluator()
    empty = run(ev, "set query let set constant t = { 'a':{}, 'b':{} } in "
                    "separate { l:x in t where false } endlet;")
    assert elements_of(ev, empty) == []
    everything = run(ev, "set query let set constant t = { 'a':{}, 'b':{} } in "
                         "separate { l:x in t where true } endlet;")
    assert sorted(el.label for el in elements_of(ev, everything)) == ["a", "b"]


def test_collect_identity_template_is_bisimilar_to_source():
    ev = make_evaluator()
    result = run(ev, "set query let set constant t = { 'a':{}, 'b':{ 'c':{} } } in "
                     "collect { l:x where l:x in t } endlet;")
    source_again = run(ev, "set query { 'a':{}, 'b':{ 'c':{} } };")
    assert ev.equal(result.root, source_again.root)


def test_cartproduct_of_singletons():
    ev = make_evaluator()
    result = run(ev, "set query call CartProduct({ 'l':{} }, "
                     "{ 'm':{ 'a':{} }, 'n':{ 'b':{} } });")
    elements = elements_of(ev, result)
    assert len(elements) == 2
    # all elements are pairs, pairwise non-bisimilar
    for el in elements:
        labels = sorted(e.label for e in ev.store.system[el.member])
        assert labels == ["fst", "snd"]
    assert not ev.equal(elements[0].member, elements[1].member)


def test_recursion_without_p_is_single_pass_separation():
    ev = make_evaluator()
    rec = run(ev, "set query let set constant t = { 'a':{}, 'b':{} } in "
                  "recursion p { l:x in t where l='a' } endlet;")
    assert [el.label for el in elements_of(ev, rec)] == ["a"]


def test_recursion_stabilizes_on_literal_comparison():
    # closure of 'reaches a' in a two-step chain encoded through membership
    ev = make_evaluator()
    source = ("set query let set constant t = { 'a':{}, 'b':{ 'a':{} } } in "
              "recursion p { l:x in t where "
              "( l='a' or exists m:y in p . 'a':y in t ) } endlet;")
    result = run(ev, source)
    assert sorted(el.label for el in elements_of(ev, result)) == ["a", "b"]


def test_tc_of_empty_is_singleton_self():
    ev = make_evaluator()
    result = run(ev, "set query TC {};")
    elements = elements_of(ev, result)
    assert len(elements) == 1
    assert elements[0].label == "null"
    assert ev.store.system[elements[0].member] == []


def test_tc_terminates_on_cycles():
    ev = make_evaluator()
    result = run(ev, 'set query let set constant g = '
                     '{ \'null\':call Pair("a","a") } in '
                     "TC decorate (g, \"a\") endlet;")
    elements = elements_of(ev, result)
    # omega = {omega}: TC(omega) = {null:omega} only
    assert len({el.member for el in elements}) == 1


def test_tc_of_bibdb_has_nine_distinct_sets(bibdb=None):
    ev = bibdb_evaluator()
    result = run(ev, "set query TC %s#BibDB;" % F1)
    members = {el.member for el in elements_of(ev, result)}
    classes = []
    for member in members:
        if not any(ev.equal(member, seen) for seen in classes):
            classes.append(member)
    assert len(classes) == 9


# ---------------------------------------------------------------------------
# Decoration
# ---------------------------------------------------------------------------

FIVE_EDGE_GRAPH = ("let set constant g = { "
                   "'null':call Pair(\"a\",\"b\"), 'null':call Pair(\"b\",\"a\"), "
                   "'null':call Pair(\"a\",\"c\"), 'null':call Pair(\"a\",\"d\"), "
                   "'null':call Pair(\"b\",\"d\") } in %s endlet;")


def test_decorate_trivial_cycle_gives_omega():
    ev = make_evaluator()
    result = run(ev, 'set query let set constant g = '
                     '{ \'null\':call Pair("a","a") } in decorate (g, "a") endlet;')
    elements = elements_of(ev, result)
    assert len(elements) == 1
    assert elements[0].member == result.root  # literally self-referential


def test_decorate_five_edge_graph_structure():
    ev = make_evaluator()
    result = run(ev, "set query " + FIVE_EDGE_GRAPH % 'decorate (g, "a")')
    a = elements_of(ev, result)
    assert len(a) == 3
    # children: one two-element node (b) and two empty nodes (c, d)
    kinds = sorted(len(ev.store.system[el.member]) for el in a)
    assert kinds == [0, 0, 2]
    b = next(el.member for el in a if len(ev.store.system[el.member]) == 2)
    b_children = {el.member for el in ev.store.system[b]}
    assert result.root in b_children  # the a <-> b cycle survives


def test_decorate_equality_a_b_is_true():
    ev = make_evaluator()
    result = run(ev, "boolean query " +
                 FIVE_EDGE_GRAPH % 'decorate (g, "a") = decorate (g, "b")')
    assert result.boolean is True


def test_decorate_of_isolated_vertex_is_empty():
    ev = make_evaluator()
    result = run(ev, 'set query decorate ({}, { \'v\':{} });')
    assert elements_of(ev, result) == []


def test_can_collapses_redundancies():
    ev = make_evaluator()
    result = run(ev, "set query " + FIVE_EDGE_GRAPH % 'call Can ( decorate (g, "a") )')
    elements = elements_of(ev, result)
    assert len(elements) == 2
    members = {el.member for el in elements}
    assert result.root in members  # omega' = {omega', {}}
    other = next(m for m in members if m != result.root)
    assert ev.store.system[other] == []


def test_can_is_idempotent_and_preserves_value():
    ev = make_evaluator()
    first = run(ev, "set query " + FIVE_EDGE_GRAPH % 'call Can ( decorate (g, "a") )')
    again = run(ev, "set query call Can ( %s );" % first.root.full)
    assert ev.equal(first.root, again.root)

    def canonical_shape(root):
        reachable = sorted(ev.store.system.reachable(root), key=lambda n: n.full)
        index = {n: i for i, n in enumerate(reachable)}
        return sorted(
            (index[n], sorted((el.label, index[el.member])
                              for el in ev.store.system[n]))
            for n in reachable)

    # literally equal up to renaming: compare canonical adjacency shapes
    assert len(ev.store.system.reachable(first.root)) == \
        len(ev.store.system.reachable(again.root))
    # both strongly extensional
    for root in (first.root, again.root):
        reachable = list(ev.store.system.reachable(root))
        for x, y in itertools.combinations(reachable, 2):
            assert not ev.equal(x, y)


def _random_node(rng):
    """A node term and its key.  Atoms stand for their letter, and
    {'a':{}} is a second name for the atom "a"."""
    letter = rng.choice("abc")
    roll = rng.random()
    if roll < 0.15:
        return "{}", "empty"
    if roll < 0.3:
        return "{'%s':{}}" % letter, letter
    return '"%s"' % letter, letter


def _random_graph_element(rng):
    """(query text, edge (label, fst key, snd key) or None, member keys)."""
    label = rng.choice(["l0", "l1", "null"])
    (x, kx), (y, ky), (z, kz) = (_random_node(rng) for _ in range(3))
    kind = rng.randrange(7)
    if kind == 0:
        return "'null':call Pair(%s, %s)" % (x, y), ("null", kx, ky), [kx, ky]
    if kind == 1:  # an extra label, whose member is a node too
        return ("'%s':{'fst':%s, 'k':%s, 'snd':%s}" % (label, x, z, y),
                (label, kx, ky), [kx, kz, ky])
    if kind == 2:  # repeated fst members: a pair only when they are equal
        return ("'%s':{'fst':%s, 'snd':%s, 'fst':%s}" % (label, x, y, z),
                (label, kx, ky) if kx == kz else None, [kx, ky, kz])
    if kind == 3:  # repeated snd members
        return ("'%s':{'snd':%s, 'fst':%s, 'snd':%s}" % (label, y, x, z),
                (label, kx, ky) if ky == kz else None, [ky, kx, kz])
    if kind == 4:
        return "'%s':{'fst':%s}" % (label, x), None, [kx]
    if kind == 5:
        return "'%s':{'snd':%s, 'k':%s}" % (label, y, z), None, [ky, kz]
    return "'%s':%s" % (label, x), None, [kx]


def test_decorate_matches_a_python_built_decoration():
    rng = random.Random(8)
    outcomes = {"node": 0, "no node": 0}
    for _ in range(150):
        ev = make_evaluator()
        parts = [_random_graph_element(rng) for _ in range(rng.randint(0, 10))]
        edges = [edge for _, edge, _ in parts if edge is not None]
        nodes = {key for _, edge, keys in parts if edge is not None for key in keys}
        vertex, vertex_key = _random_node(rng) if rng.random() < 0.9 else ('"z"', "z")
        result = run(ev, "set query let set constant g = { %s } in decorate (g, %s) endlet;"
                     % (", ".join(text for text, _, _ in parts), vertex))
        if vertex_key not in nodes:
            outcomes["no node"] += 1
            assert elements_of(ev, result) == []
            continue
        outcomes["node"] += 1
        # D_x = {l: D_y for every edge l:(x, y)}, closed together with the result
        system = EquationSystem()
        for name in ev.store.system.reachable(result.root):
            system.define(name, ev.store.system[name])
        decoration = {key: SetName("mem://decoration.xml", "D-" + key) for key in nodes}
        for key in nodes:
            system.define(decoration[key], [Element(label, decoration[y])
                                            for label, x, y in edges if x == key])
        blocks = naive_bisimulation(system)
        assert blocks[result.root] == blocks[decoration[vertex_key]]
    assert min(outcomes.values()) >= 10


def test_decorate_adds_only_its_result_closure_to_the_store():
    ev = make_evaluator()
    # "e" is a node that "a" does not reach
    setup = run(ev, "set query { 'g':{ 'null':call Pair(\"a\",\"b\"), "
                    "'null':call Pair(\"b\",\"a\"), 'null':call Pair(\"e\",\"a\") }, "
                    "'v':\"a\" };")
    named = {el.label: el.member.full for el in elements_of(ev, setup)}
    for vertex in (named["v"], named["g"]):  # a node, and no node
        before = set(ev.store.system.equations)
        result = run(ev, "set query decorate (%s, %s);" % (named["g"], vertex))
        added = set(ev.store.system.equations) - before
        assert added == ev.store.system.reachable(result.root)


# ---------------------------------------------------------------------------
# Bisimulation invariance of evaluation
# ---------------------------------------------------------------------------

def test_query_results_invariant_under_store_presentation():
    rng = random.Random(99)
    for trial in range(10):
        url = "mem://inv%d.xml" % trial
        system = random_closed_system(rng, max_names=8, max_labels=2, url=url)
        twin, mapping = duplicate_and_shuffle(system, rng,
                                              url="mem://inv%dt.xml" % trial)
        root = next(iter(system.equations))
        ev = make_evaluator()
        ev.store.system.merge(system)
        ev.store.system.merge(twin)
        q = "set query separate { l:x in %s where ('l0':x in %s or x=x) };"
        r1 = run(ev, q % (root.full, root.full))
        r2 = run(ev, q % (mapping[root].full, mapping[root].full))
        assert ev.equal(r1.root, r2.root)
        b1 = run(ev, "boolean query exists l:x in %s . 'l0':x in %s;"
                 % (root.full, root.full)).boolean
        b2 = run(ev, "boolean query exists l:x in %s . 'l0':x in %s;"
                 % (mapping[root].full, mapping[root].full)).boolean
        assert b1 == b2


# ---------------------------------------------------------------------------
# The call memo
# ---------------------------------------------------------------------------

NONEMPTY_MEMBERS = ("set query NonEmptyMembers (set x) be "
                    "collect { 'k':y where l:y in x and exists m:z in y . true }")
HAS_L0_TWIN = ("boolean query HasL0Twin (set x) be "
               "exists l:y in x . 'l0':y in x")


def memo_of(evaluator: Evaluator, closure) -> dict:
    """The results of a library query's calls in the evaluator's memo, by
    argument key."""
    return {key[1:]: result for key, result in evaluator.memo.items() if key[0] is closure}


def counting_bodies(monkeypatch, closure) -> list:
    """Record each run of a query closure's compiled body."""
    seen = []
    body = closure.body

    def counting(*arguments):
        seen.append(arguments)
        return body(*arguments)
    monkeypatch.setattr(closure, "body", counting)
    return seen


def test_calls_on_a_twin_hit_the_memo_and_agree_with_the_oracle(monkeypatch):
    rng = random.Random(11)
    for trial in range(8):
        system = random_closed_system(rng, max_names=8, max_labels=2,
                                      url="mem://memo%d.xml" % trial, acyclic=True)
        twin, mapping = duplicate_and_shuffle(system, rng,
                                              url="mem://memo%dt.xml" % trial)
        ev = make_evaluator()
        ev.store.system.merge(system)
        ev.store.system.merge(twin)
        declare(ev, NONEMPTY_MEMBERS, HAS_L0_TWIN)
        members = ev.library_env["NonEmptyMembers"]
        has_l0 = ev.library_env["HasL0Twin"]
        set_bodies = counting_bodies(monkeypatch, members)
        bool_bodies = counting_bodies(monkeypatch, has_l0)
        root = next(iter(system.equations))
        pair = (root, mapping[root])

        # a set call reuses its result only inside a formula
        probe = "boolean query call NonEmptyMembers(%s) = call NonEmptyMembers(%s);"
        for name in pair:
            assert run(ev, probe % (name.full, name.full)).boolean is True
        assert len(set_bodies) == 1
        (memoized,) = memo_of(ev, members).values()
        answers = [run(ev, "boolean query call HasL0Twin(%s);" % name.full).boolean
                   for name in pair]
        assert len(bool_bodies) == 1 and answers[0] is answers[1]

        blocks = naive_bisimulation(ev.store.system)
        for name in pair:
            shape = {(l, blocks[m]) for l, m in ev.store.system[name]}
            expected = {("k", blocks[m]) for _, m in ev.store.system[name]
                        if ev.store.system[m]}
            assert {(l, blocks[m]) for l, m in ev.store.system[memoized]} == expected
            assert answers[0] is any(("l0", block) in shape for _, block in shape)


def test_a_call_that_fails_to_fetch_is_not_memoized():
    inner = EquationSystem()
    inner.define(SetName("mem://inner.xml", "leaf"), [])
    inner.define(SetName("mem://inner.xml", "y"),
                 [Element("l0", SetName("mem://inner.xml", "leaf"))])
    outer = EquationSystem()
    outer.define(SetName("mem://outer.xml", "x"),
                 [Element("a", SetName("mem://inner.xml", "y"))])
    documents = {"mem://outer.xml": from_equations(outer, "mem://outer.xml"),
                 "mem://inner.xml": from_equations(inner, "mem://inner.xml")}
    failures = []

    def fails_inner_once(url: str) -> str:
        if url == "mem://inner.xml" and not failures:
            failures.append(url)
            raise FetchError("unreachable: %s" % url)
        return documents[url]

    ev = Evaluator(SessionStore(fails_inner_once))
    declare(ev, "boolean query Deep (set x) be "
                "exists l:y in x . exists m:z in y . true")
    query = "boolean query call Deep(mem://outer.xml#x);"
    with pytest.raises(FetchError):
        run(ev, query)
    assert memo_of(ev, ev.library_env["Deep"]) == {} and ev.memo == {}
    assert run(ev, query).boolean is True
    assert failures == ["mem://inner.xml"]


LET_PROBE = """let set constant c = %s,
                     boolean query IsC (set s) be s = c,
                     set query Wrap (set s) be { 'w':c }
                 in if ( call IsC(a) and call Wrap(a) = { 'w':a } )
                    then "yes" else "no" fi endlet"""


def test_let_queries_made_per_element_never_share_results():
    # every element makes new IsC and Wrap closures, capturing a c that
    # equals a for the 'y' labels only; all are called on the same argument
    # key, and the many short-lived closures give their ids a chance of reuse
    labels = ["%s%d" % (prefix, i) for i in range(16) for prefix in "yn"]
    ev = make_evaluator()
    result = run(ev, """set query
        let set constant a = { 'v':{} },
            set constant t = { %s }
        in collect {
            l:if l = 'y*' then %s else %s fi
            where l:e in t }
        endlet;""" % (", ".join("'%s':{}" % label for label in labels),
                      LET_PROBE % "{ 'v':{} }", LET_PROBE % "{ 'w':{} }"))
    expected = ", ".join("'%s':\"%s\"" % (label, "yes" if label[0] == "y" else "no")
                         for label in labels)
    assert postprocess(result, ev.store) == "Result = {%s}" % expected


def test_iteration_bodies_see_every_element_and_leave_nothing_behind():
    # an iteration binds each element in place in one environment: a query
    # that its body declares anew for each element, and calls there, must
    # see the current element, and nothing a body declares or binds may be
    # seen by the next element or after the iteration
    ev = make_evaluator()
    members = "'a':{}, 'b':{ 'c':{} }, 'a':{}, 'd':{ 'c':{}, 'e':{} }, 'b':{ 'c':{} }"
    scope = ("let set constant t = { %s }, set query Own (set i, label k) be { k:i } "
             "in %%s endlet" % members)
    other = "let set query Own (set i, label k) be { 'other':i } in %s endlet"
    for formula, expected in (
            ("forall l:x in ( t U t ) . (call Own(x, l) = { l:x } and %s)"
             % other % "call Own(x, l) = { 'other':x }", True),
            ("exists l:x in ( t U t ) . %s" % other % "not call Own(x, l) = { 'other':x }",
             False),
            ("forall l:x in t . forall m:y in t . "
             "(call Own(y, m) = { m:x } <=> (x = y and l = m))", True)):
        assert run(ev, "boolean query %s;" % scope % formula).boolean is expected, formula
    result = run(ev, "set query %s;" % scope % (
        "collect { l:let set query Me (set i) be i in call Me(x) endlet "
        "where l:x in t and exists m:x in ( t U t ) . %s }"
        % other % "call Own(x, m) = { 'other':x }"))
    assert postprocess(result, ev.store) == (
        "Result = {'a':{}, 'b':\"c\", 'a':{}, 'd':{'c':{}, 'e':{}}, 'b':\"c\"}")


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------

def test_postprocess_inlines_single_use_acyclic_names():
    ev = make_evaluator()
    result = run(ev, "set query { 'a':{ 'b':{}, 'c':{} } };")
    text = postprocess(result, ev.store)
    assert text == "Result = {'a':{'b':{}, 'c':{}}}"


def test_postprocess_resugars_atom_shaped_brackets():
    # any {X:{}} member prints as the atomic value "X"
    ev = make_evaluator()
    result = run(ev, "set query { 'a':{ 'b':{} } };")
    text = postprocess(result, ev.store)
    assert text == 'Result = {\'a\':"b"}' 


def test_postprocess_resugars_atoms():
    ev = make_evaluator()
    result = run(ev, 'set query { \'name\':"Jack" };')
    text = postprocess(result, ev.store)
    assert text == 'Result = {\'name\':"Jack"}'


def test_postprocess_renders_cycles_by_name():
    ev = make_evaluator()
    result = run(ev, 'set query let set constant g = '
                     '{ \'null\':call Pair("a","a") } in decorate (g, "a") endlet;')
    text = postprocess(result, ev.store)
    assert text == "Result = {'null':Result}"


def test_postprocess_renders_a_long_cycle_by_name_without_recursion_error():
    store = SessionStore(MemoryFetcher())
    names = [store.fresh("res") for _ in range(5000)]
    for name, after in zip(names, names[1:] + names[:1]):
        store.define(name, [Element("next", after)])
    lines = postprocess(QueryResult(root=names[0]), store).split("\n\n")
    assert lines[0] == "Result = {'next':%s}" % names[1].simple
    assert sorted(lines[1:]) == sorted(
        "%s = {'next':%s}" % (name.simple, "Result" if after == names[0] else after.simple)
        for name, after in zip(names[1:], names[2:] + names[:1]))


def test_postprocess_lists_a_self_member_reached_through_a_document():
    # x is referenced once by a generated name (itself), so only its self
    # membership keeps it from being inlined where nothing renders it
    store = SessionStore(MemoryFetcher())
    root, x = store.fresh("res"), store.fresh("res")
    document = SetName("mem://doc.xml", "d")
    store.define(root, [Element("d", document)])
    store.define(document, [Element("g", x)])
    store.define(x, [Element("s", x)])
    assert postprocess(QueryResult(root=root), store) == (
        "Result = {'d':mem://doc.xml#d}\n\n%s = {'s':%s}" % (x.simple, x.simple))
    assert postprocess(QueryResult(root=root), store) == reference_render(root, store.system)


def test_postprocess_keeps_multereferenced_names_below():
    ev = make_evaluator()
    result = run(ev, "set query let set constant shared = { 'x':{}, 'y':{} } in "
                     "{ 'p':shared, 'q':shared } endlet;")
    text = postprocess(result, ev.store)
    lines = text.splitlines()
    assert lines[0].startswith("Result = {'p':res")
    assert any(line.startswith("res") and "'x':{}" in line and "'y':{}" in line
               for line in lines)


def reference_render(root: SetName, system: EquationSystem) -> str:
    """The renderer's rules as first written: a name is cyclic when a
    member reaches it, checked per element by a fresh closure walk."""
    generated = {n for n in system.reachable(root) if n.is_local()}
    ref_count = {}
    for name in generated | {root}:
        for el in system.equations.get(name, []):
            ref_count[el.member] = ref_count.get(el.member, 0) + 1

    def is_empty(name):
        return name in generated and system.equations.get(name) == []

    def atom_text(name):
        expr = system.equations.get(name, []) if name in generated else None
        if expr is not None and len(expr) == 1 and is_empty(expr[0].member):
            return expr[0].label
        return None

    def cyclic(name):
        return any(name in system.reachable(el.member)
                   for el in system.equations.get(name, []))

    def inline(name):
        return (name in generated and name != root and atom_text(name) is None
                and not is_empty(name) and ref_count.get(name, 0) == 1
                and not cyclic(name))

    def ref(name):
        if name == root:
            return "Result"
        if is_empty(name):
            return "{}"
        if atom_text(name) is not None:
            return '"%s"' % atom_text(name)
        if inline(name):
            return bracket(system.equations[name])
        return name.simple if name in generated else name.full

    def bracket(elements):
        return "{" + ", ".join("'%s':%s" % (el.label, ref(el.member))
                               for el in elements) + "}" if elements else "{}"

    lines = ["Result = " + bracket(system.equations.get(root, []))]
    lines += ["%s = %s" % (n.simple, bracket(system.equations[n]))
              for n in sorted(generated, key=lambda n: n.simple)
              if n != root and not inline(n) and not is_empty(n)
              and atom_text(n) is None]
    return "\n\n".join(lines)


def test_postprocess_agrees_with_the_reference_rules_on_cyclic_systems():
    rng = random.Random(5)
    for trial in range(40):
        local = random_closed_system(rng, max_names=12, max_labels=3, url=LOCAL_URL)
        document = random_closed_system(rng, max_names=10, max_labels=2,
                                        url="mem://doc%d.xml" % trial)
        store = SessionStore(MemoryFetcher())
        document_names = list(document.equations)
        for name, elements in document.equations.items():
            store.define(name, elements)
        for name, elements in local.equations.items():
            # some generated names point into the document, which may
            # itself point back at a generated name
            store.define(name, [el if rng.random() < 0.7 else
                                Element(el.label, rng.choice(document_names))
                                for el in elements])
        if rng.random() < 0.5:
            # a document may name a generated name: a cycle through both
            extra = store.fresh("res")
            back = SetName("mem://doc%d.xml" % trial, "back")
            store.define(back, [Element("g", extra)])
            store.define(extra, [Element("b", back),
                                 Element("x", rng.choice(list(local.equations)))])
            store.define(store.fresh("res"), [Element("e", extra)])
        for root in list(store.system.equations):
            assert postprocess(QueryResult(root=root), store) == \
                reference_render(root, store.system), trial


def test_postprocess_timing_line():
    ev = make_evaluator()
    result = run(ev, "set query {};")
    text = postprocess(result, ev.store, elapsed_ms=12)
    assert text.endswith("Finished in: 12 ms")


def test_postprocess_boolean():
    ev = make_evaluator()
    assert postprocess(QueryResult(boolean=True), ev.store) == "Result = true"


def test_recursion_iteration_count_is_bounded_by_source_size():
    # each stage allocates one named iterate; stages <= |t| + 1
    ev = make_evaluator()
    result = run(ev, "set query let set constant t = "
                     "{ 'a':{}, 'b':{}, 'c':{} } in "
                     "recursion q { l:x in t where "
                     "(l='a' or exists m:y in q . true) } endlet;")
    stages = [n for n in ev.store.system.equations
              if n.is_local() and (n.simple == "q" or n.simple.startswith("q"))]
    assert 1 <= len(stages) <= 4
    assert sorted(el.label for el in elements_of(ev, result)) == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# The compiled library
# ---------------------------------------------------------------------------

BIBDB_QUERIES = [
    """set query
      let set constant BibDB be %s#BibDB,
          set constant b2 be %s#b2
      in collect { pub-type:pub
          where pub-type:pub in BibDB
          and exists 'refers-to':ref in pub . ref=b2
        }
      endlet;""" % (F1, F1),
    "set query call TC_along_label('refers-to', %s#b1);" % F1,
    "set query " + FIVE_EDGE_GRAPH % 'call Can ( decorate (g, "a") )',
    "boolean query call isPair(call Pair(%s#b2, %s#p3));" % (F1, F2),
]


@pytest.mark.parametrize("query", BIBDB_QUERIES,
                         ids=["collect", "tc-along-label", "can", "is-pair"])
def test_spliced_and_scoped_queries_render_the_same(query):
    spliced, scoped = bibdb_evaluator(), bibdb_evaluator()
    tree = analyze(parse(expand_library(query, PREDEFINED_DECLARATIONS)))
    expected = postprocess(spliced.eval_query(tree), spliced.store)
    assert postprocess(run(scoped, query), scoped.store) == expected


def test_second_evaluator_compiles_nothing(monkeypatch):
    make_evaluator()
    calls = []
    monkeypatch.setattr(evaluator_module, "parse", lambda *args: calls.append("parse"))
    monkeypatch.setattr(evaluator_module, "analyze", lambda *args: calls.append("analyze"))
    ev = make_evaluator()
    assert calls == []
    assert run(ev, "boolean query call isPair(call Pair({}, {}));").boolean is True


def test_generated_functions_load_exactly_the_tables_they_read():
    library = evaluator_module.predefined_library()
    source = evaluator_module._generated(lambda generator: generator.declarations(
        library.declarations, generator.assign("dict(env)")))
    tables = evaluator_module._TABLES
    reads = {}
    for part in source[1:]:  # the first part holds the constants
        [function] = ast.parse(part).body
        loaded = [target.id for statement in function.body
                  if isinstance(statement, ast.Assign)
                  for target in statement.targets
                  if isinstance(target, ast.Name) and target.id in tables
                  and ast.unparse(statement.value) == tables[target.id]]
        read = {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in tables}
        assert sorted(loaded) == sorted(read), function.name
        reads[function.name] = read
    # the library reaches every table, and Pair's body (f1) reads none
    assert len(reads) == 19 and reads["f1"] == set()
    assert set().union(*reads.values()) == set(tables)
