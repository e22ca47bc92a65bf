import itertools
import json
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hypersetdb import evaluator
from hypersetdb import grammar as g
from hypersetdb import parser as parser_module
from hypersetdb.analysis import AnalysisError, analyze
from hypersetdb.library import PREDEFINED_DECLARATIONS
from hypersetdb.parser import ParseError, ParseNode, bounding_node, parse, reprint


# ---------------------------------------------------------------------------
# Fork table
# ---------------------------------------------------------------------------

def test_fork_lookup_multiple_union():
    assert g.unique_fork(("<set variable>", "U", "<set constant>")) == \
        g.MULTIPLE_UNION


def test_fork_lookup_forall():
    children = ("forall", g.VARIABLE_PAIR, "in", "<set variable>", ".")
    assert g.unique_fork(children) == g.FORALL


def test_equality_forks_disambiguate_by_child_class():
    assert g.unique_fork(("<label constant>", "=", "<label constant>")) == \
        g.LABEL_EQUALITY
    assert g.unique_fork(("<set constant>", "=", "<set constant>")) == \
        g.SET_EQUALITY
    # mixing classes matches no fork at all
    assert g.unique_fork(("<label constant>", "=", "<set constant>")) is None


def _sample_categories(slot):
    """Concrete child labels a fork slot can take (classes expanded)."""
    members = g._CLASS_MEMBERS.get(slot)
    if members is not None:
        return sorted(members)
    return [slot]


def test_fork_uniqueness_assertion():
    """Distinct forks may share a child-label sequence only if all of them are
    identifier forks: enumerate every fixed fork shape against every other."""
    expanded = []
    for fork in g.FIXED_FORKS:
        slot_choices = [_sample_categories(slot) for slot in fork.shape]
        # expanding full products explodes on big forks; vary one slot at a
        # time around a base assignment, which covers every pairwise overlap
        base = tuple(choices[0] for choices in slot_choices)
        variants = {base}
        for index, choices in enumerate(slot_choices):
            for choice in choices:
                variants.add(base[:index] + (choice,) + base[index + 1:])
        for variant in variants:
            expanded.append((fork.root, variant))

    by_children = {}
    for root, children in expanded:
        by_children.setdefault(children, set()).add(root)
    for children, roots in by_children.items():
        assert len(roots) == 1, "ambiguous fork %r -> %r" % (children, roots)
        # variadic rules must not collide with fixed forks either
        for variadic_root in g._variadic_match(children):
            assert variadic_root == next(iter(roots)) or variadic_root not in roots, \
                children

    # sampled variadic shapes stay unambiguous too
    samples = [
        ("<set variable>", "U", "<set variable>"),
        ("<set equality>", "and", "<membership>"),
        ("<set equality>", "or", "<membership>"),
        ("<set equality>", "=>", "<membership>", "<=>", "<boolean literal>"),
        ("<set constant declaration>", ",", "<set query declaration>"),
        ("<labelled term>", ",", "<labelled term>"),
        ("<variable>", ",", "<variable>"),
        ("<set variable>", ",", "<label value>"),
    ]
    for children in samples:
        roots = set(g._variadic_match(children))
        roots.update(r for r in (f.root for f in g.FIXED_FORKS if f.matches(children)))
        assert len(roots) == 1, children


def test_identifier_forks_share_one_shape():
    roots = g.fork_candidates(("pub-type",))
    assert set(roots) == set(g.IDENTIFIER_CATEGORIES)
    assert g.unique_fork(("pub-type",)) is None


def test_keywords_are_not_identifier_leaves():
    assert not g.is_identifier_leaf("forall")
    assert not g.is_identifier_leaf("U")
    assert g.is_identifier_leaf("pub-type")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def labels_of(node: ParseNode):
    return [c.label for c in node.children]


def test_parse_label_constant_declaration_query():
    result = parse("boolean query let label constant l='Robert' in l='Rob*' endlet;")
    query = result.tree.children[0]
    assert query.label == g.QUERY
    body = query.children[2]
    assert body.label == g.FORMULA_WITH_DECLS
    decls = body.children[1]
    assert decls.label == g.DECLARATIONS
    assert decls.children[0].label == g.LABEL_CONSTANT_DECL
    equality = body.children[3]
    assert equality.label == g.LABEL_EQUALITY
    assert equality.children[2].label == g.WILDCARD_LABEL


def test_parse_collect_query_is_well_formed():
    source = ("set query collect { pub-type:pub where pub-type:pub in BibDB "
              "and exists 'refers-to':ref in pub . ref=b2 };")
    result = parse(source)
    collect = result.tree.children[0].children[2]
    assert collect.label == g.COLLECT
    # identifier uses: pub-type/pub in the template, pub-type... the bound
    # occurrences in the variable pair do not count as uses
    names = sorted({n.identifier_text() for n in result.identifier_nodes})
    assert names == ["BibDB", "b2", "pub", "pub-type", "ref"]


def test_tokens_are_tuples_and_end_with_two_eofs():
    assert g.tokenize("set query {'a':x};") == [
        ("WORD", "set", 0), ("WORD", "query", 4), ("PUNCT", "{", 10),
        ("LABELVALUE", "'a'", 11), ("PUNCT", ":", 14), ("WORD", "x", 15),
        ("PUNCT", "}", 16), ("PUNCT", ";", 17), ("EOF", "", 18), ("EOF", "", 18)]


def test_parse_error_position_points_at_offending_token():
    with pytest.raises(ParseError) as excinfo:
        parse("set query ;")
    assert excinfo.value.position == 10
    assert "Error at character 11" in str(excinfo.value)


def test_unbalanced_query_fails():
    with pytest.raises(ParseError):
        parse("set query { 'a':x ;")
    with pytest.raises(ParseError):
        parse("boolean query a = ;")


def test_set_name_literals_are_single_tokens():
    source = "set query http://www.liv.ac.uk/~u/f.xml#b2;"
    result = parse(source)
    term = result.tree.children[0].children[2]
    assert term.label == g.SET_NAME
    assert term.children[0].label == "http://www.liv.ac.uk/~u/f.xml#b2"


def test_quantifier_scope_is_minimal():
    source = "boolean query (forall l:x in a . l='b' and x=a);"
    result = parse(source)
    paren = result.tree.children[0].children[2]
    assert paren.label == g.PAREN_FORMULA
    conj = paren.children[1]
    assert conj.label == g.CONJUNCTION
    quantified = conj.children[0]
    assert quantified.label == g.QUANTIFIED
    # the quantifier's body is only the first conjunct
    assert quantified.children[1].label == g.LABEL_EQUALITY


def test_quasi_implication_chain_parses_flat():
    source = "boolean query (true => false <=> true);"
    result = parse(source)
    chain = result.tree.children[0].children[2].children[1]
    assert chain.label == g.QUASI_IMPLICATION
    assert labels_of(chain) == [g.BOOLEAN_LITERAL, "=>", g.BOOLEAN_LITERAL,
                                "<=>", g.BOOLEAN_LITERAL]


def test_tc_keyword_variants():
    for kw in ("tc", "TC", "transitiveclosure"):
        result = parse("set query %s x;" % kw)
        assert result.tree.children[0].children[2].label == g.TRANSITIVE_CLOSURE


def test_case_sensitive_keywords():
    with pytest.raises(ParseError):
        parse("SET QUERY {};")


def test_every_fork_in_tree_is_known(bibdb_like_queries=None):
    sources = [
        "set query {};",
        "set query { 'a':{}, 'b':{'c':{}} };",
        "set query let set constant c = {} in (c U c U {}) endlet;",
        "boolean query let set constant c = {} in "
        "(exists l:x in c . ('k':x in c and not x=c)) endlet;",
        "set query let set query f (set x,label m) be "
        "separate { l:y in x where l=m } in call f({}, 'q') endlet;",
        "set query if true then {} else tc {} fi;",
        "set query recursion p { l:x in {} where 'a':x in p };",
        "set query decorate ({}, {});",
        "library list verbose;",
        "library add set constant c = {};",
        "exit;",
    ]
    for source in sources:
        tree = parse(source).tree
        for node in tree.walk():
            if node.is_leaf():
                continue
            candidates = g.fork_candidates(node.child_labels())
            if node.label == g.VARIABLE_PAIR:
                continue  # structural node, grammar-exempt by design
            assert node.label in candidates or candidates == [], \
                (node.label, node.child_labels(), candidates)
            assert candidates, (node.label, node.child_labels())


def test_reprint_reparses_isomorphic():
    sources = [
        "set query collect { pub-type:pub where pub-type:pub in BibDB "
        "and exists 'refers-to':ref in pub . ref=b2 };",
        "boolean query let label constant l='Robert' in l='Rob*' endlet;",
        "set query let set constant g be { 'null':call Pair(\"a\",\"b\") } in "
        "call Can(call HorizontalTC(g)) endlet;",
    ]

    def shape(node: ParseNode):
        return (node.label, tuple(shape(c) for c in node.children))

    for source in sources:
        tree = parse(source).tree
        again = parse(reprint(tree)).tree
        assert shape(tree) == shape(again)


def test_btflvn_sublists_cover_binder_terms():
    source = ("set query let set constant c = {} in "
              "separate { l:x in c where x=c } endlet;")
    result = parse(source)
    separates = [n for n in result.tree.walk() if n.label == g.SEPARATE]
    assert len(separates) == 1
    [(_, btflvn, uses)] = [b for b in result.binders if b[0] is separates[0]]
    assert btflvn is bounding_node(separates[0])
    assert [u.identifier_text() for u in uses] == ["c"]


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abcxyz{}()=:,;'\" ", min_size=0, max_size=30))
@example("(" * 2000 + "{}" + ")" * 2000)
def test_parser_never_crashes_on_noise(noise):
    try:
        parse("set query " + noise + ";")
    except ParseError:
        pass


def test_fork_table_uniqueness_per_entry():
    table = g.fork_table()
    identifier_shapes = [f.shape for f in table if f.identifier]
    assert len(identifier_shapes) == len(g.IDENTIFIER_CATEGORIES)
    assert len(set(identifier_shapes)) == 1  # the shared single-leaf shape
    fixed = [f for f in table if not f.identifier]
    by_shape = {}
    for fork in fixed:
        by_shape.setdefault(fork.shape, set()).add(fork.root)
    for shape, roots in by_shape.items():
        assert len(roots) == 1, (shape, roots)


# ---------------------------------------------------------------------------
# The indexed fork table against the linear scan
# ---------------------------------------------------------------------------

def _variadic_reference(children):
    """The Kleene-repetition roots by their definition: members and
    separators alternate, with at least the rule's fewest members."""
    n = len(children)

    def alternating(member_ok, separators, minimum):
        if n < 2 * minimum - 1 or n % 2 == 0:
            return False
        return (all(member_ok(children[i]) for i in range(0, n, 2))
                and all(children[i] in separators for i in range(1, n, 2)))

    rules = [
        (g.DECLARATIONS, lambda c: c in g.DECLARATION_CATEGORIES, (",",), 1),
        (g.VARIABLES, lambda c: c == g.VARIABLE, (",",), 1),
        (g.PARAMETERS, lambda c: c in g.TERM_CATEGORIES | g.LABEL_CATEGORIES, (",",), 1),
        (g.LABELLED_TERMS, lambda c: c == g.LABELLED_TERM, (",",), 1),
        (g.MULTIPLE_UNION, lambda c: c in g.TERM_CATEGORIES, ("U", "union"), 2),
        (g.CONJUNCTION, lambda c: c in g.FORMULA_CATEGORIES, ("and",), 2),
        (g.DISJUNCTION, lambda c: c in g.FORMULA_CATEGORIES, ("or",), 2),
        (g.QUASI_IMPLICATION, lambda c: c in g.FORMULA_CATEGORIES, g.QUASI_CONNECTIVES, 2),
    ]
    return [root for root, member_ok, separators, minimum in rules
            if alternating(member_ok, separators, minimum)]


def _leaf_reference(children):
    """Roots recognised by the shape of a single leaf."""
    if len(children) != 1:
        return []
    leaf = children[0]
    if g.SETNAME_RE.fullmatch(leaf):
        return [g.SET_NAME]
    if g.ATOM_RE.fullmatch(leaf):
        return [g.ATOMIC_VALUE]
    match = g.LABEL_VALUE_RE.fullmatch(leaf)
    if match:
        return [g.WILDCARD_LABEL if match.group(1) or match.group(3) else g.LABEL_VALUE]
    if g.is_identifier_leaf(leaf):
        return [f.root for f in g.IDENTIFIER_FORKS]
    return []


def _candidates_reference(children):
    return ([f.root for f in g.FIXED_FORKS if f.matches(children)]
            + _variadic_reference(children) + _leaf_reference(children))


def _expanded_fork_shapes():
    """Every fixed fork with one slot at a time varied over its class, as
    test_fork_uniqueness_assertion expands them."""
    for fork in g.FIXED_FORKS:
        slot_choices = [_sample_categories(slot) for slot in fork.shape]
        base = tuple(choices[0] for choices in slot_choices)
        yield base
        for index, choices in enumerate(slot_choices):
            for choice in choices:
                yield base[:index] + (choice,) + base[index + 1:]


# every query parsed in this file
PARSER_TEST_QUERIES = [
    "boolean query let label constant l='Robert' in l='Rob*' endlet;",
    "set query collect { pub-type:pub where pub-type:pub in BibDB "
    "and exists 'refers-to':ref in pub . ref=b2 };",
    "set query http://www.liv.ac.uk/~u/f.xml#b2;",
    "boolean query (forall l:x in a . l='b' and x=a);",
    "boolean query (true => false <=> true);",
    "set query tc x;", "set query TC x;", "set query transitiveclosure x;",
    "set query {};",
    "set query { 'a':{}, 'b':{'c':{}} };",
    "set query let set constant c = {} in (c U c U {}) endlet;",
    "boolean query let set constant c = {} in "
    "(exists l:x in c . ('k':x in c and not x=c)) endlet;",
    "set query let set query f (set x,label m) be "
    "separate { l:y in x where l=m } in call f({}, 'q') endlet;",
    "set query if true then {} else tc {} fi;",
    "set query recursion p { l:x in {} where 'a':x in p };",
    "set query decorate ({}, {});",
    "library list verbose;",
    "library add set constant c = {};",
    "exit;",
    "set query let set constant g be { 'null':call Pair(\"a\",\"b\") } in "
    "call Can(call HorizontalTC(g)) endlet;",
    "set query let set constant c = {} in "
    "separate { l:x in c where x=c } endlet;",
]


def _random_label_sequences(rng, count):
    categories = sorted({value for name, value in vars(g).items()
                         if name.isupper() and isinstance(value, str)
                         and value.startswith("<") and value.endswith(">")})
    terminals = sorted({slot for fork in g.FIXED_FORKS for slot in fork.shape
                        if slot not in g._CLASS_MEMBERS and slot not in categories}
                       | set(g.QUASI_CONNECTIVES) | {"U", "union", "and", "or", ","})
    labels = categories + terminals
    separators = [",", "U", "union", "and", "or"] + list(g.QUASI_CONNECTIVES)
    for _ in range(count):
        n = rng.randint(0, 9)
        if rng.random() < 0.5:
            yield tuple(rng.choice(labels) for _ in range(n))
        else:  # alternating members and separators, as the variadic rules read
            members = rng.choice([categories, sorted(g.FORMULA_CATEGORIES),
                                  sorted(g.TERM_CATEGORIES)])
            separator = rng.choice(separators)
            yield tuple(rng.choice(members) if i % 2 == 0 else
                        (separator if rng.random() < 0.9 else rng.choice(separators))
                        for i in range(2 * n + 1))


def _fork_test_sequences():
    sequences = list(_expanded_fork_shapes())
    for source in PARSER_TEST_QUERIES:
        sequences.extend(node.child_labels() for node in parse(source).postorder)
    sequences.extend(_random_label_sequences(random.Random(13), 20000))
    return sequences


def test_fork_index_equals_the_linear_scan():
    sequences = _fork_test_sequences()
    matched = variadic = 0
    for children in sequences:
        expected = _candidates_reference(children)
        assert g.fork_candidates(children) == expected, children
        matched += bool(expected)
        variadic += bool(_variadic_reference(children))
    # the sample reaches the fixed forks and the repetition rules
    assert matched > len(sequences) // 8 and variadic > len(sequences) // 20


def test_cached_unique_fork_agrees_and_stays_bounded():
    cache = g._unique_fork
    cache.cache_clear()
    sequences = _fork_test_sequences()
    for children in sequences:
        assert g.unique_fork(children) == cache.__wrapped__(children), children
    info = cache.cache_info()
    # single children (user text) never enter the cache
    assert info.hits + info.misses == sum(len(c) > 1 for c in sequences)
    assert info.hits > 0
    assert info.maxsize is not None and info.currsize <= info.maxsize < len(sequences)


def _variadic_scan(children):
    """The Kleene-repetition match that scans every rule, whatever the first
    child: `grammar._variadic_match` with no test of the first child."""
    n = len(children)
    if n % 2 == 0 or (n > 1 and children[1] not in g._SEPARATORS):
        return []
    members, separators = children[0::2], children[1::2]
    return [root for root, member_class, allowed, minimum in g._VARIADIC_RULES
            if n >= 2 * minimum - 1
            and all(s in allowed for s in separators)
            and all(m in member_class for m in members)]


# one-child sequences: user text (set names, atoms, plain and wildcard label
# values, identifiers), keywords and the empty string
USER_TEXT = [("file:///wdb/BibDB-f1.xml#BibDB",), ("mem://x.xml#b-2",), ('"Smith"',),
             ("'author'",), ("'pa*'",), ("'*t*'",), ("'*x'",), ("BibDB",),
             ("pub-type",), ("x",), ("U",), ("forall",), ("",)]


def test_fork_lookup_equals_the_full_variadic_scan():
    corpus = json.loads(Path(__file__).with_name("golden_front_end.json")
                        .read_text(encoding="utf-8"))
    sequences = list(_expanded_fork_shapes()) + USER_TEXT
    for entry in corpus:
        result = parse(entry["source"])
        sequences.extend(node.child_labels() for node in result.postorder)
        try:  # an ill-typed command stops relabelling where it fails
            analyze(result, evaluator.predefined_library())
        except AnalysisError:
            pass
        sequences.extend(node.child_labels() for node in result.postorder)
    single = 0
    for children in sequences:
        assert g._variadic_match(children) == _variadic_scan(children), children
        fixed = [f.root for f in g.FIXED_FORKS if f.matches(children)]
        assert g.fork_candidates(children) == (fixed + _variadic_scan(children)
                                               + _leaf_reference(children)), children
        single += len(children) == 1 and bool(_leaf_reference(children))
    assert single > 500 and any(_variadic_scan(c) for c in sequences)


# ---------------------------------------------------------------------------
# The bookkeeping recorded by the descent against its walk-based definition
# ---------------------------------------------------------------------------

def _reference_walk(node):
    yield node
    for child in node.children:
        yield from _reference_walk(child)


def _reference_postorder(node):
    for child in node.children:
        yield from _reference_postorder(child)
    yield node


def _reference_identifier_uses(tree):
    declared = set()
    for node in _reference_walk(tree):
        if node.label in g.DECLARATION_CATEGORIES:
            declared.add(id(node.children[2]))
        elif node.label == g.VARIABLE:
            declared.add(id(node.children[1]))
        elif node.label == g.VARIABLE_PAIR:
            for child in node.children:
                if child.label in g.IDENTIFIER_CATEGORIES:
                    declared.add(id(child))
        elif node.label == g.RECURSION:
            declared.add(id(node.children[1]))
    return [node for node in _reference_walk(tree)
            if node.label in g.IDENTIFIER_CATEGORIES and id(node) not in declared]


def _reference_binders(tree, uses):
    binders = []
    for node in _reference_walk(tree):
        btflvn = bounding_node(node)
        if btflvn is not None:
            inside = set(id(n) for n in _reference_walk(btflvn))
            binders.append((node, btflvn, [u for u in uses if id(u) in inside]))
    return binders


def _bib_session_commands(directory, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench import inputs
    rng = random.Random(101)
    return [command.text for command in inputs.bib_commands(inputs.bibdb(rng, directory), rng)]


def _same_nodes(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


# each of these backtracks after recording nodes, uses or binders: a
# formula group whose "(" first fails as a term (once with a binder and uses
# inside the failed term), a label equality after a failed membership and a
# failed set equality, a set equality whose first "(" is a term, and deep
# nests whose inner failures are replayed from the failed-term table
BACKTRACKING_QUERIES = [
    "boolean query let set constant x = {}, set constant y = {} in "
    "(x = y and 'a':x in y) endlet;",
    "boolean query let set constant x = {}, set constant y = {} in "
    "((x U y) = y and exists l:z in y . z = x) endlet;",
    "boolean query let set constant y = {} in "
    "(separate { l:z in y where z = y } = y and (y = y or true)) endlet;",
    "boolean query let label constant l = 'b' in l = 'a' endlet;",
    "boolean query let set constant c = {} in ((c U c) = c) endlet;",
    "boolean query let set constant c = {} in " + "(" * 300 + "c = c" + ")" * 300
    + " endlet;",
    "boolean query let set constant c = {} in " + "(" * 300
    + "exists l:x in c . (x = c and 'a':x in c)" + ")" * 300 + " endlet;",
    "boolean query let set constant c = {} in "
    + "(exists l:x in c . " * 100 + "true" + ")" * 100 + " endlet;",
]


def test_one_pass_bookkeeping_equals_the_walks(tmp_path, monkeypatch):
    deep_parens = ("set query let set constant c = {} in " + "(c U " * 300 + "c"
                   + ")" * 300 + " endlet;")
    # each binder's bounding term is the previous binder's variable
    deep_binders = ("boolean query let set constant x0 = {} in "
                    + "".join("exists l:x%d in x%d . " % (i + 1, i) for i in range(300))
                    + "true endlet;")
    sources = (["library add " + ",\n".join(PREDEFINED_DECLARATIONS) + ";",
                deep_parens, deep_binders]
               + _bib_session_commands(tmp_path, monkeypatch) + PARSER_TEST_QUERIES
               + BACKTRACKING_QUERIES)
    for source in sources:
        result = parse(source)
        tree = result.tree
        assert tree.parent is None
        for node in _reference_walk(tree):
            assert all(child.parent is node for child in node.children)
        # every record holds exactly nodes of the final tree
        assert _same_nodes(result.postorder, list(_reference_postorder(tree)))
        assert _same_nodes(list(tree.walk()), list(_reference_walk(tree)))
        uses = _reference_identifier_uses(tree)
        assert _same_nodes(result.identifier_nodes, uses)
        expected = _reference_binders(tree, uses)
        assert len(result.binders) == len(expected)
        for (binder, btflvn, inside), got in zip(expected, result.binders):
            assert got[0] is binder and got[1] is btflvn
            assert _same_nodes(got[2], inside)
    # each quantifier and its head, and the declaration of x0
    assert len(parse(deep_binders).binders) == 601


# ---------------------------------------------------------------------------
# Backtracking over parenthesised terms
# ---------------------------------------------------------------------------

def _counting_term_entries(monkeypatch) -> list:
    entries = []
    original = parser_module._Parser.parse_term

    def counting(self):
        entries.append(self.pos)
        return original(self)
    monkeypatch.setattr(parser_module._Parser, "parse_term", counting)
    return entries


def test_parenthesised_formulas_take_linear_term_steps(monkeypatch):
    # a formula tries a term first at every opening parenthesis; the nest
    # must not be parsed as a term again at each level.  (400 deep exceeds
    # the parser's nesting guard, so 50 and 200 stand for 100 and 400.)
    entries = _counting_term_entries(monkeypatch)
    counts = {}
    for depth in (50, 200):
        entries.clear()
        tree = parse("boolean query " + "(" * depth + "true" + ")" * depth + ";").tree
        assert reprint(tree).count("(") == depth
        counts[depth] = len(entries)
    assert counts[200] <= 4 * counts[50] + 10


class _Forgetful(dict):
    """A failed-term table that remembers nothing."""

    def __setitem__(self, key, value):
        pass


def test_a_remembered_term_failure_acts_as_parsing_the_term_again():
    # between two attempts at one start another production may fail as far
    # with another expectation (first case), or the furthest error may lie
    # beyond what the attempt reaches (second case)
    source = "set query ( ( x U ;"
    for before in ((0, "query"), (40, "beyond")):
        states = []
        for table in ({}, _Forgetful()):
            p = parser_module._Parser(source)
            p.failed_parens = table
            p.furthest, p.furthest_expected = before
            for attempt in range(2):
                if attempt:
                    p.furthest_expected = "another production"
                p.pos = 2
                with pytest.raises(ParseError):
                    p.parse_paren_term()
            states.append((p.furthest, p.furthest_expected))
        assert states[0] == states[1]


def test_remembered_term_failures_report_the_same_errors(monkeypatch):
    """The parser with failed parenthesised terms remembered agrees with
    one that parses them again, on the trees it builds and on the furthest
    error it reports."""

    def outcome(source):
        try:
            return reprint(parse(source).tree)
        except ParseError as exc:
            return str(exc)

    remembered_init = parser_module._Parser.__init__

    def forgetful_init(self, source):
        remembered_init(self, source)
        self.failed_parens = _Forgetful()

    rng = random.Random(14)

    def term(depth):
        roll = rng.randrange(5 if depth else 2)
        if roll < 2:
            return ["{}", "x"][roll]
        if roll == 2:
            return "( %s )" % term(depth - 1)
        if roll == 3:
            return "( %s U %s )" % (term(depth - 1), term(depth - 1))
        return "{ 'a':%s }" % term(depth - 1)

    def formula(depth):
        roll = rng.randrange(6 if depth else 2)
        if roll == 0:
            return "true"
        if roll == 1:
            return "%s = %s" % (term(depth), term(depth))
        if roll == 2:
            return "( %s )" % formula(depth - 1)
        if roll == 3:
            return "( %s %s %s )" % (formula(depth - 1), rng.choice(["and", "or", "=>"]),
                                     formula(depth - 1))
        if roll == 4:
            return "'a':%s in %s" % (term(depth - 1), term(depth - 1))
        return "not %s" % formula(depth - 1)

    sources = []
    for _ in range(1500):
        words = ("boolean query %s ;" % formula(4)).split()
        sources.append(" ".join(words))
        del words[rng.randrange(2, len(words))]  # most lose well-formedness
        sources.append(" ".join(words))
    remembered = [outcome(source) for source in sources]
    monkeypatch.setattr(parser_module._Parser, "__init__", forgetful_init)
    assert [outcome(source) for source in sources] == remembered
    assert sum(text.startswith("Error") for text in remembered) > 100
    assert sum(not text.startswith("Error") for text in remembered) > 100


# ---------------------------------------------------------------------------
# Nesting limits
# ---------------------------------------------------------------------------

NESTS = {
    "union": lambda depth: ("set query let set constant c = {} in " + "(c U " * depth
                            + "c" + ")" * depth + " endlet;"),
    "not": lambda depth: "boolean query " + "not " * depth + "true;",
    "tc": lambda depth: "set query " + "tc " * depth + "{};",
    "parenthesised formula": lambda depth: ("boolean query " + "(" * depth + "true"
                                            + ")" * depth + ";"),
}
# the deepest nest of each kind that `parse` accepts under the default
# recursion limit, called from a fresh thread two calls down (CPython 3.10
# and 3.11; 3.12 accepts one or two levels more)
DEEPEST_NESTS = {"union": 491, "not": 986, "tc": 984, "parenthesised formula": 327}


def test_nesting_limits_stay_where_they_are():
    assert sys.getrecursionlimit() == 1000
    outcomes = {}

    def outcome(source):
        try:
            parse(source)
        except ParseError as exc:
            return exc.reason
        return "accepted"

    def run():  # a fresh thread, so the caller's stack does not count
        for name, make in NESTS.items():
            depth = DEEPEST_NESTS[name]
            outcomes[name] = outcome(make(depth)), outcome(make(2 * depth))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert outcomes == dict.fromkeys(
        NESTS, ("accepted", "expected a less deeply nested expression"))
