import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, strategies as st

from hypersetdb.names import (
    DuplicateEquationError, Element, EquationSystem, LOCAL_URL,
    NameAllocator, NameError_, SetName, components, parse_full_name,
    parse_set_name,
)
from hypersetdb.bisim import naive_equal
from hypersetdb.xmlwdb import SET_NS, load_equations


def test_parse_full_name_splits_at_hash():
    name = parse_set_name("http://h/f.xml#b2", "http://other/")
    assert name == SetName("http://h/f.xml", "b2")
    assert name.full == "http://h/f.xml#b2"


def test_parse_full_name_needs_url_and_simple_name_around_last_hash():
    assert parse_full_name("mem://f.xml#a#b") == SetName("mem://f.xml#a", "b")
    assert parse_full_name("u#not an id").simple == "not an id"
    for text in ("nohash", "#x", "mem://f.xml#", ""):
        with pytest.raises(NameError_):
            parse_full_name(text)


def test_parse_simple_name_resolves_against_base():
    name = parse_set_name("st2", "http://www.liv.ac.uk/Students.xml")
    assert name.full == "http://www.liv.ac.uk/Students.xml#st2"


def test_parse_rejects_illegal_identifier():
    with pytest.raises(NameError_):
        parse_set_name("a b", "http://x/")
    with pytest.raises(NameError_):
        parse_set_name("http://host/path", "http://x/")  # '/' without '#'


# -- the name type --------------------------------------------------------------

# Characters on both sides of "#" in code-point order; a URL may hold "#"
# itself, a simple name never does.
_urls = st.text(alphabet="!#-./:ab", min_size=1, max_size=6)
_simples = st.text(alphabet="!-./:ab", min_size=1, max_size=4)
_names = st.tuples(_urls, _simples).map(lambda pair: SetName(*pair))


@given(st.lists(_names, max_size=12))
def test_names_sort_by_their_rendered_form(names):
    assert sorted(names) == sorted(names, key=lambda n: n.full)


@given(_names, _names)
def test_names_are_equal_exactly_when_their_rendered_forms_are(a, b):
    assert (a == b) == (a.full == b.full)
    assert (a != b) == (a.full != b.full)
    if a == b:
        assert hash(a) == hash(b)


@given(_names)
def test_a_name_survives_copy_and_pickle(name):
    for twin in (copy.deepcopy(name), pickle.loads(pickle.dumps(name))):
        assert type(twin) is SetName
        assert twin == name and hash(twin) == hash(name)
        assert (twin.full, twin.url, twin.simple) == (name.full, name.url, name.simple)


@given(_names)
def test_a_name_never_equals_its_text_or_an_element(name):
    assert name != name.full and name.full not in {name}
    assert name != Element(name.url, name) and name != Element(name.full, name)


def test_names_hash_and_compare_natively():
    for method in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(SetName, method) is getattr(tuple, method), method


def test_duplicate_definition_is_an_error():
    system = EquationSystem()
    name = SetName("http://x/f.xml", "a")
    system.define(name, [])
    with pytest.raises(DuplicateEquationError):
        system.define(name, [])


# -- flattening (XML-WDB loading invents a name per nested bracket) -----------

def wdb_document(equations: str) -> str:
    return '<set:eqns xmlns:set="%s">%s</set:eqns>' % (SET_NS, equations)


def test_flatten_already_flat_is_unchanged():
    url = "http://x/f.xml"
    system = load_equations(wdb_document('<set:eqn set:id="x"/>'), url)
    assert system.equations == {SetName(url, "x"): []}


def test_flatten_students_example():
    # Stud = {student:{forename:"Jack"...}, student:{...}} becomes a system
    # with one fresh name per inner bracket
    url = "http://u/stud.xml"
    stud = SetName(url, "Stud")
    system = load_equations(wdb_document(
        '<set:eqn set:id="Stud"><student><forename>Jack</forename></student>'
        '<student><forename>Sarah</forename></student></set:eqn>'), url)
    roots = system.equations[stud]
    assert [el.label for el in roots] == ["student", "student"]
    assert roots[0].member != roots[1].member
    for el in roots:
        inner = system.equations[el.member]
        assert [e.label for e in inner] == ["forename"]


def test_flatten_preserves_meaning_checked_by_bisimulation_oracle():
    # a = {l:{m:{}}}  ->  a={l:f1}, f1={m:f2}, f2={}; the flattened system is
    # bisimilar to an independently hand-flattened version of the same input
    url = "mem://f.xml"
    a = SetName(url, "a")
    system = load_equations(wdb_document('<set:eqn set:id="a"><l><m/></l></set:eqn>'), url)
    assert len(system.equations) == 3

    hand = EquationSystem()
    h_a, h_1, h_2 = (SetName("mem://hand.xml", s) for s in ("a", "f1", "f2"))
    hand.define(h_a, [Element("l", h_1)])
    hand.define(h_1, [Element("m", h_2)])
    hand.define(h_2, [])

    merged = EquationSystem()
    merged.merge(system)
    merged.merge(hand)
    assert naive_equal(merged, a, h_a)


# -- fresh names ---------------------------------------------------------------

def test_fresh_name_counter_sequence():
    system = EquationSystem()
    allocator = NameAllocator()
    first = allocator.fresh(system, "res")
    assert first == SetName(LOCAL_URL, "res")
    system.define(first, [])
    for expected in ("res0", "res1", "res2"):
        name = allocator.fresh(system, "res")
        assert name.simple == expected
        system.define(name, [])


def test_fresh_name_skips_names_mentioned_in_store():
    system = EquationSystem()
    system.define(SetName(LOCAL_URL, "p"), [])
    allocator = NameAllocator()
    assert allocator.fresh(system, "p").simple == "p0"


@given(st.integers(min_value=1, max_value=40))
def test_fresh_name_injectivity(count):
    system = EquationSystem()
    allocator = NameAllocator()
    seen = set()
    for _ in range(count):
        name = allocator.fresh(system, "res")
        assert name not in seen
        assert name not in system
        seen.add(name)
        system.define(name, [])


# ---------------------------------------------------------------------------
# Strongly connected components
# ---------------------------------------------------------------------------

def reaches(graph, start):
    """The names reachable from start, start included, by brute force."""
    seen, stack = {start}, [start]
    while stack:
        for member in graph.get(stack.pop(), ()):
            if member not in seen:
                seen.add(member)
                stack.append(member)
    return seen


def test_components_agree_with_brute_force_reachability():
    rng = random.Random(29)
    for trial in range(200):
        size = rng.randint(1, 12)
        # names size..size+2 have no equation; some equations are missing too
        graph = {n: [rng.randrange(size + 3) for _ in range(rng.randint(0, 4))]
                 for n in range(size) if rng.random() < 0.9}
        root = rng.randrange(size)
        found = list(components(root, lambda n: graph.get(n, ())))
        names = [n for component in found for n in component]
        reachable = reaches(graph, root)
        assert sorted(names) == sorted(reachable), trial
        position = {n: i for i, component in enumerate(found) for n in component}
        closure = {n: reaches(graph, n) for n in reachable}
        for x in reachable:
            for y in closure[x]:
                # same component exactly when each reaches the other, and
                # a component comes after every component it reaches
                assert (position[x] == position[y]) == (x in closure[y]), trial
                assert position[y] <= position[x], trial


def test_components_of_long_chain_and_ring_need_no_recursion():
    n = 100_000
    assert sys.getrecursionlimit() < n
    chain = list(components(0, lambda i: [i + 1] if i + 1 < n else []))
    assert chain == [[i] for i in reversed(range(n))]
    ring = list(components(0, lambda i: [(i + 1) % n]))
    assert len(ring) == 1 and sorted(ring[0]) == list(range(n))
