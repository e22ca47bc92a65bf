"""Acceptance suite: one test (or test group) per acceptance criterion, each
at its stated tolerance.  A summary line per criterion is printed at the end
of the run (see conftest)."""

import itertools
import random
import statistics
import time

import pytest

from hypersetdb.analysis import AnalysisError, analyze
from hypersetdb.approx import Fragment, simple_approx, write_approx_file
from hypersetdb.bisim import FactStore, bisimilar, naive_bisimulation
from hypersetdb.evaluator import Evaluator, postprocess
from hypersetdb.experiments import (
    build_chains, build_self_contained, build_three_file, run_experiment,
)
from hypersetdb.names import Element, EquationSystem, SetName
from hypersetdb.parser import parse
from hypersetdb.store import FileFetcher, MemoryFetcher, SessionStore
from hypersetdb.xmlwdb import XmlWdbDocument, from_equations, load_equations, to_equations

from conftest import duplicate_and_shuffle, random_closed_system


@pytest.fixture(scope="module")
def session_evaluator(bibdb):
    """One query session over the file-served bibliography WDB."""
    return Evaluator(SessionStore(FileFetcher()))


def run_query(evaluator, source):
    tree = analyze(parse(source), evaluator.library)
    return evaluator.eval_query(tree)


def reachable_system(evaluator, root) -> EquationSystem:
    system = EquationSystem()
    for name in evaluator.store.system.reachable(root):
        system.define(name, evaluator.store.system[name])
    return system


def assert_bisimilar_to_expected(evaluator, root, expected: EquationSystem,
                                 expected_root) -> None:
    merged = reachable_system(evaluator, root)
    merged.merge(expected)
    blocks = naive_bisimulation(merged)
    assert blocks[root] == blocks[expected_root]


def atoms_system(url="mem://expected.xml"):
    """Scaffolding for hand-encoded expected systems: the empty set plus an
    atom maker."""
    system = EquationSystem()
    empty = SetName(url, "EMPTY")
    system.define(empty, [])

    def atom(text):
        name = SetName(url, "ATOM-" + text)
        if name not in system:
            system.define(name, [Element(text, empty)])
        return name

    def define(simple, elements):
        name = SetName(url, simple)
        system.define(name, [Element(l, m) for l, m in elements])
        return name

    return system, atom, define, empty


# ---------------------------------------------------------------------------
# 1. BibDB reference query
# ---------------------------------------------------------------------------

def test_criterion_01_bibdb_reference_query(bibdb, session_evaluator):
    ev = session_evaluator
    source = """set query
      let set constant BibDB be %s#BibDB,
          set constant b2 be %s#b2
      in collect { pub-type:pub
          where pub-type:pub in BibDB
          and exists 'refers-to':ref in pub . ref=b2
        }
      endlet;""" % (bibdb.f1_url, bibdb.f1_url)
    started = time.monotonic()
    result = run_query(ev, source)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    elements = ev.store.system[result.root]
    assert len(elements) == 2
    by_label = {el.label: el.member for el in elements}
    assert set(by_label) == {"paper", "book"}
    assert ev.equal(by_label["paper"], bibdb.name("p2"))
    assert ev.equal(by_label["book"], bibdb.name("b1"))


# ---------------------------------------------------------------------------
# 2. Non-well-typed diagnostics
# ---------------------------------------------------------------------------

def test_criterion_02_undeclared_identifier_diagnostics():
    source = ("set query collect { pub-type:pub "
              "where pub-type:pub in BibDB "
              "and exists 'refers-to':ref in pub . ref=b2 };")
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse(source))
    undeclared = [item.name for item in excinfo.value.items
                  if "not declared" in item.message]
    assert undeclared == ["BibDB", "b2"]
    assert len(excinfo.value.items) == 2


# ---------------------------------------------------------------------------
# 3. Bisimulation ground truth over BibDB
# ---------------------------------------------------------------------------

def test_criterion_03_bibdb_ground_truth(bibdb):
    store = SessionStore(FileFetcher())
    facts = FactStore()
    roots = [bibdb.name(s) for s in ("BibDB", "b1", "b2", "p1", "p2", "p3")]
    outcomes = {(x.simple, y.simple): bisimilar(x, y, store, facts)
                for x, y in itertools.combinations(roots, 2)}
    assert len(outcomes) == 15
    assert outcomes[("b2", "p3")] is True
    assert sum(outcomes.values()) == 1  # every other pair negative

    # cross-check against the brute-force oracle on the closed union
    closed = EquationSystem()
    closed.merge(load_equations(FileFetcher()(bibdb.f1_url), bibdb.f1_url))
    closed.merge(load_equations(FileFetcher()(bibdb.f2_url), bibdb.f2_url))
    blocks = naive_bisimulation(closed)
    for x, y in itertools.combinations(roots, 2):
        assert outcomes[(x.simple, y.simple)] == (blocks[x] == blocks[y])

    # the same facts, rendered as a trivial-oracle file, carry one yes
    from hypersetdb.engine import generate_trivial_oracle_xml, TrivialOracle
    from hypersetdb.bisim import OracleValue
    oracle = TrivialOracle.from_xml(generate_trivial_oracle_xml(closed))
    values = [oracle.answer(x, y) for x, y in itertools.combinations(roots, 2)]
    assert values.count(OracleValue.YES) == 1
    assert values.count(OracleValue.NO) == 14


# ---------------------------------------------------------------------------
# 4. Restructuring query
# ---------------------------------------------------------------------------

def test_criterion_04_restructuring_query(bibdb, session_evaluator):
    ev = session_evaluator
    source = """set query
      let set constant BibDB = %s#BibDB,
          set constant restructuredBibDB be
            (U collect{
              'null':if (L='paper' or L='book')
                     then { 'publication':X,
                            'type':call Pair(call Second(X),{L:{}}),
                            L:call Pair({L:{}}, {}) }
                     else {L:X}
                     fi
               where L:X in call CanGraph(BibDB)
               }
            )
      in decorate ( restructuredBibDB, BibDB )
      endlet;""" % bibdb.f1_url
    result = run_query(ev, source)

    elements = ev.store.system[result.root]
    assert len(elements) == 4
    assert all(el.label == "publication" for el in elements)

    # one publication carries both types
    def type_labels(member):
        labels = set()
        for el in ev.store.system[member]:
            if el.label == "type":
                inner = ev.store.system[el.member]
                labels.update(e.label for e in inner)
        return labels

    both = [el.member for el in elements
            if type_labels(el.member) == {"paper", "book"}]
    assert len(both) == 1

    # bisimilar to the hand-encoded published graph
    expected, atom, define, empty = atoms_system()
    p3b2 = define("P3B2", [("type", atom("paper")), ("type", atom("book")),
                           ("author", atom("Jones")), ("title", atom("Databases"))])
    p2 = define("P2", [("type", atom("paper")), ("author", atom("Smith")),
                       ("title", atom("Databases")), ("refers-to", p3b2)])
    p1 = define("P1", [("type", atom("paper")), ("refers-to", p2)])
    b1 = define("B1", [("type", atom("book")), ("refers-to", p3b2),
                       ("refers-to", p1)])
    root = define("ROOT", [("publication", p1), ("publication", p2),
                           ("publication", p3b2), ("publication", b1)])
    assert_bisimilar_to_expected(ev, result.root, expected, root)


# ---------------------------------------------------------------------------
# 5. Decoration and cycles
# ---------------------------------------------------------------------------

FIVE_EDGE_GRAPH = ("let set constant g = { "
                   "'null':call Pair(\"a\",\"b\"), 'null':call Pair(\"b\",\"a\"), "
                   "'null':call Pair(\"a\",\"c\"), 'null':call Pair(\"a\",\"d\"), "
                   "'null':call Pair(\"b\",\"d\") } in %s endlet;")


def test_criterion_05_decoration_and_canonisation(session_evaluator):
    ev = session_evaluator
    equality = run_query(ev, "boolean query " +
                         FIVE_EDGE_GRAPH % 'decorate (g, "a") = decorate (g, "b")')
    assert equality.boolean is True

    result = run_query(ev, "set query " +
                       FIVE_EDGE_GRAPH % 'call Can ( decorate (g, "a") )')
    elements = ev.store.system[result.root]
    assert len(elements) == 2

    # expected: omega' = {null:omega', null:{}}
    expected, atom, define, empty = atoms_system("mem://omega.xml")
    omega = SetName("mem://omega.xml", "OMEGA")
    expected.define(omega, [Element("null", omega), Element("null", empty)])
    assert_bisimilar_to_expected(ev, result.root, expected, omega)


# ---------------------------------------------------------------------------
# 6. Horizontal transitive closure
# ---------------------------------------------------------------------------

def test_criterion_06_horizontal_tc(session_evaluator):
    ev = session_evaluator
    source = """set query
      let set constant g be { 'null':call Pair("a","b"),
                              'null':call Pair("b","c") }
      in call Can(call HorizontalTC(g)) endlet;"""
    result = run_query(ev, source)
    elements = ev.store.system[result.root]
    assert len(elements) == 6

    expected, atom, define, empty = atoms_system("mem://htc.xml")
    expected_pairs = {}
    for a, b in (("a", "b"), ("b", "c"), ("a", "c"),
                 ("a", "a"), ("b", "b"), ("c", "c")):
        expected_pairs[(a, b)] = define("PAIR-%s-%s" % (a, b),
                                        [("fst", atom(a)), ("snd", atom(b))])

    merged = reachable_system(ev, result.root)
    merged.merge(expected)
    blocks = naive_bisimulation(merged)
    matches = []
    for el in elements:
        matched = [key for key, name in expected_pairs.items()
                   if blocks[name] == blocks[el.member]]
        assert len(matched) == 1, "element matches %r" % matched
        matches.append(matched[0])
    # exact multiset: every expected pair appears exactly once
    assert sorted(matches) == sorted(expected_pairs)


# ---------------------------------------------------------------------------
# 7. Path expression imitation
# ---------------------------------------------------------------------------

def test_criterion_07_path_expression_imitation(bibdb, session_evaluator):
    ev = session_evaluator
    source = """set query
    let
    set constant BibDB = %s#BibDB,
    set constant b1 = %s#b1,
    set constant b2 = %s#b2
    in
    separate {
        pub-type:x in BibDB
        where
            exists m:y in separate {
                n:xx in call TC_along_label('refers-to',b1)
                where 'refers-to':b2 in xx
            } .
            ( x=y and 'author':"Smith" in x)
          }
    endlet;""" % (bibdb.f1_url, bibdb.f1_url, bibdb.f1_url)
    result = run_query(ev, source)
    elements = ev.store.system[result.root]
    assert len(elements) == 1
    assert elements[0].label == "paper"
    assert ev.equal(elements[0].member, bibdb.name("p2"))


# ---------------------------------------------------------------------------
# 8. Linear ordering
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def linear_order(bibdb, session_evaluator):
    ev = session_evaluator
    started = time.monotonic()
    order = run_query(ev, "set query let set constant BibDB = %s#BibDB in "
                          "call StrictLinOrder_on_TC(BibDB) endlet;" % bibdb.f1_url)
    successors = run_query(ev, "set query let set constant BibDB = %s#BibDB in "
                               "call SuccessorPairs( call StrictLinOrder_on_TC(BibDB) ) "
                               "endlet;" % bibdb.f1_url)
    elapsed = time.monotonic() - started
    return order, successors, elapsed


def _chain_of(evaluator, successors_root):
    """Decode successor pairs into the succession mapping over class
    representatives."""
    ev = evaluator

    def fst_snd(pair):
        first = second = None
        for el in ev.store.system[pair]:
            if el.label == "fst":
                first = el.member
            elif el.label == "snd":
                second = el.member
        return first, second

    classes = []

    def cls(name):
        for index, representative in enumerate(classes):
            if ev.equal(name, representative):
                return index
        classes.append(name)
        return len(classes) - 1

    edges = {}
    for el in ev.store.system[successors_root]:
        a, b = fst_snd(el.member)
        edges[cls(a)] = cls(b)
    return classes, edges


def test_criterion_08_linear_ordering_properties(session_evaluator, linear_order):
    """The order is strict and total on the 9 classes of TC(BibDB), the
    successor set has 8 pairs, and the run completes in under 10 minutes."""
    ev = session_evaluator
    order, successors, elapsed = linear_order
    assert elapsed < 600.0

    elements = ev.store.system[successors.root]
    assert len(elements) == 8

    # full relation: strict total order on exactly 9 classes
    pairs = []
    classes = []

    def cls(name):
        for index, representative in enumerate(classes):
            if ev.equal(name, representative):
                return index
        classes.append(name)
        return len(classes) - 1

    for el in ev.store.system[order.root]:
        first = second = None
        for sub in ev.store.system[el.member]:
            if sub.label == "fst":
                first = sub.member
            elif sub.label == "snd":
                second = sub.member
        pairs.append((cls(first), cls(second)))
    relation = set(pairs)
    assert len(classes) == 9
    assert len(relation) == 36
    assert all(a != b for a, b in relation)
    assert all((b, a) not in relation for a, b in relation)
    for a in range(9):
        for b in range(9):
            if a != b:
                assert (a, b) in relation or (b, a) in relation
    for a, b in relation:
        for b2, c in relation:
            if b == b2:
                assert (a, c) in relation


def test_criterion_08_reference_successor_chain(bibdb, session_evaluator, linear_order):
    """The successor pairs match the reference chain
    {} < "Databases" < "Jones" < "Smith" < BibDB < b1 < p1 < b2/p3 < p2.

    At its fixpoint StrictLinOrder_on_TC puts x before y exactly when the
    greatest element of their symmetric difference lies in y, elements
    ordered by label first and then by member.  p1 = {refers-to:p2} and
    b1 = {refers-to:b2, refers-to:p1} differ in three refers-to elements, the
    greatest of which, refers-to:p2, lies in p1; hence b1 < p1.
    """
    ev = session_evaluator
    _, successors, _ = linear_order
    classes, edges = _chain_of(ev, successors.root)

    # hand-encoded representatives of the nine classes, in published order
    expected, atom, define, empty = atoms_system("mem://order.xml")
    jones = define("JONES-PUB", [("author", atom("Jones")),
                                 ("title", atom("Databases"))])   # b2 / p3
    p2 = define("P2X", [("author", atom("Smith")), ("title", atom("Databases")),
                        ("refers-to", jones)])
    p1 = define("P1X", [("refers-to", p2)])
    b1 = define("B1X", [("refers-to", jones), ("refers-to", p1)])
    bib = define("BIBX", [("paper", p1), ("paper", p2), ("paper", jones),
                          ("book", b1), ("book", jones)])
    published = [empty, atom("Databases"), atom("Jones"), atom("Smith"),
                 bib, b1, p1, jones, p2]

    # closed form of the order on these well-founded sets: a set's key is
    # its distinct (label, member key) elements sorted greatest first, and
    # tuple order then puts x before y iff max(x symdiff y) lies in y
    def key(name):
        return tuple(sorted({(el.label, key(el.member)) for el in expected[name]},
                            reverse=True))

    for earlier, later in zip(published, published[1:]):
        assert key(earlier) < key(later), \
            ("reference chain is not increasing in the closed-form order at "
             "%s -> %s" % (earlier.simple, later.simple))

    merged = reachable_system(ev, successors.root)
    merged.merge(expected)
    blocks = naive_bisimulation(merged)

    def block_of_class(index):
        return blocks[classes[index]]

    chain = {block_of_class(a): block_of_class(b) for a, b in edges.items()}
    for earlier, later in zip(published, published[1:]):
        assert chain.get(blocks[earlier]) == blocks[later], \
            ("reference successor link %s -> %s not reproduced by "
             "SuccessorPairs(StrictLinOrder_on_TC(BibDB))"
             % (earlier.simple, later.simple))


# ---------------------------------------------------------------------------
# 9. Local approximations
# ---------------------------------------------------------------------------

def test_criterion_09_local_approximations(bibdb):
    text = FileFetcher()(bibdb.f1_url)
    system = load_equations(text, bibdb.f1_url)
    fragment = Fragment.from_system(system, bibdb.f1_url)
    facts = simple_approx(fragment)
    assert len(facts.simple) == 3
    assert all(value is False for value in facts.simple.values())
    names = {frozenset((a.simple, b.simple)) for a, b in facts.simple}
    assert names == {frozenset(p) for p in
                     (("BibDB", "b1"), ("BibDB", "b2"), ("b1", "b2"))}

    # written file structure: one group per root name, pairs under the
    # earlier name, no facts under the last
    import xml.etree.ElementTree as ET
    written = write_approx_file(bibdb.f1_url, fragment.local, facts.simple)
    root = ET.fromstring(written)
    assert root.tag == "simple-approximation"
    groups = list(root)
    assert [g.attrib["set_name"].rpartition("#")[2] for g in groups] == \
        ["BibDB", "b1", "b2"]
    assert [len(list(g)) for g in groups] == [2, 1, 0]
    for group in groups:
        for fact in group:
            assert fact.attrib["value"] == "no"


# ---------------------------------------------------------------------------
# 10. Engine trends
# ---------------------------------------------------------------------------

@pytest.mark.slow
def _figures(measurement) -> str:
    """What a failed timing assertion reports about one run."""
    return ("%s d=%g: wall %.1f ms, client_fetches %d, engine_fetches %d, "
            "questions_resolved %d" % (
                measurement.strategy, measurement.delay_ms, measurement.wall_ms,
                measurement.client_fetches, measurement.engine_fetches,
                measurement.questions_resolved))


def test_criterion_10a_chains_delay_trend():
    scenario = build_chains(files=10, names=51)
    delays = [0, 500, 1000, 1500, 2000]
    measurements = []
    for delay in delays:
        measurement = run_experiment(scenario, "engine", delay_ms=delay,
                                     fetch_latency_ms=25)
        assert measurement.answer is True
        measurements.append(measurement)
    # the last delay's query takes a few ms, so one pause of the process
    # (a collection, a descheduling) could cross the bound: it is timed
    # three times and the median compared
    repeats = [run_experiment(scenario, "engine", delay_ms=delays[-1], fetch_latency_ms=25)
               for _ in range(2)]
    assert all(repeat.answer is True for repeat in repeats)
    measurements.extend(repeats)
    walls = [m.wall_ms for m in measurements[:len(delays) - 1]]
    walls.append(statistics.median(m.wall_ms for m in measurements[len(delays) - 1:]))
    figures = "; ".join(_figures(m) for m in measurements)
    slack = 150.0  # scheduling jitter allowance
    for earlier, later in zip(walls, walls[1:]):
        assert later <= earlier + slack, "t(d) increased: " + figures
    assert walls[-1] < 0.05 * walls[0], figures


@pytest.mark.slow
def test_criterion_10b_self_contained_approximations():
    scenario = build_self_contained(names=25)
    with_approx = run_experiment(scenario, "engine_with_approx", delay_ms=0,
                                 fetch_latency_ms=25)
    assert with_approx.answer is True
    assert with_approx.engine_fetches == 2
    assert with_approx.engine_productive_rounds == 0

    without = run_experiment(scenario, "no_engine", fetch_latency_ms=25)
    assert without.answer is True
    # full saturation: every pair among the 50 names became a question
    assert without.questions_resolved == 50 * 49 // 2


@pytest.mark.slow
def test_criterion_10c_crossover_at_zero_delay():
    scenario = build_three_file(names=61)
    local = run_experiment(scenario, "no_engine", fetch_latency_ms=25)
    engine = run_experiment(scenario, "engine", delay_ms=0, fetch_latency_ms=25)
    assert local.answer is True and engine.answer is True
    # small head start hurts: asking an ignorant engine only adds cost
    assert engine.wall_ms > 0.8 * local.wall_ms, \
        "%s; %s" % (_figures(engine), _figures(local))


# ---------------------------------------------------------------------------
# 11. Oracle equivalence and evaluator invariance
# ---------------------------------------------------------------------------

def test_criterion_11_bisimilar_agrees_with_oracle_everywhere():
    rng = random.Random(2026)
    for trial in range(200):
        system = random_closed_system(rng, max_names=25, max_labels=4,
                                      url="mem://t%d.xml" % trial)
        blocks = naive_bisimulation(system)
        store = SessionStore(MemoryFetcher({}))
        store.system.merge(system)
        facts = FactStore()
        for x, y in itertools.combinations(system.equations, 2):
            assert bisimilar(x, y, store, facts) == (blocks[x] == blocks[y]), \
                "trial %d: %s ? %s" % (trial, x.full, y.full)


def test_criterion_11_evaluator_invariance_under_duplication():
    rng = random.Random(77)
    for trial in range(50):
        url = "mem://base%d.xml" % trial
        system = random_closed_system(rng, max_names=10, max_labels=3, url=url)
        twin, mapping = duplicate_and_shuffle(system, rng,
                                              url="mem://twin%d.xml" % trial)
        root = next(iter(system.equations))
        ev = Evaluator(SessionStore(MemoryFetcher({})))
        ev.store.system.merge(system)
        ev.store.system.merge(twin)

        set_query = ("set query separate { l:x in %s where "
                     "(l='l0' or exists m:y in %s . x=y) };")
        r1 = run_query(ev, set_query % (root.full, root.full))
        r2 = run_query(ev, set_query % (mapping[root].full, mapping[root].full))
        assert ev.equal(r1.root, r2.root), "set query diverged on trial %d" % trial

        bool_query = "boolean query exists l:x in %s . 'l1':x in %s;"
        b1 = run_query(ev, bool_query % (root.full, root.full)).boolean
        b2 = run_query(ev, bool_query % (mapping[root].full,
                                         mapping[root].full)).boolean
        assert b1 == b2, "boolean query diverged on trial %d" % trial


# ---------------------------------------------------------------------------
# 12. XML-WDB round trip
# ---------------------------------------------------------------------------

def test_criterion_12_round_trip_preserves_classes(bibdb):
    fetcher = FileFetcher()

    # the reference files, closed over both documents under twin aliases
    for url in (bibdb.f1_url, bibdb.f2_url):
        original = load_equations(fetcher(url), url)
        written = from_equations(original, url)
        reloaded = to_equations(XmlWdbDocument.parse(written, url))

        merged = EquationSystem()
        for plain_url in (bibdb.f1_url, bibdb.f2_url):
            merged.merge(load_equations(fetcher(plain_url), plain_url))

        def alias(system, tag):
            for name, expr in system.equations.items():
                merged.define(
                    SetName(name.url + tag, name.simple),
                    [Element(l, m if m.url != url else SetName(m.url + tag, m.simple))
                     for l, m in expr])

        alias(original, "?orig")
        alias(reloaded, "?back")
        blocks = naive_bisimulation(merged)
        for name in original.equations:
            if name in original.generated:
                continue
            assert blocks[SetName(name.url + "?orig", name.simple)] == \
                blocks[SetName(name.url + "?back", name.simple)]

    # random closed systems round-trip literally
    rng = random.Random(123)
    for trial in range(100):
        url = "mem://round%d.xml" % trial
        system = random_closed_system(rng, max_names=15, url=url)
        written = from_equations(system, url)
        reloaded = to_equations(XmlWdbDocument.parse(written, url))
        assert reloaded.equations == system.equations


def test_criterion_08_independent_formula_cross_check(session_evaluator, linear_order):
    """A from-scratch implementation of the ordering recursion over the nine
    abstract classes (plain Python, no parser or evaluator involved) derives
    the same chain as the query system, confirming the evaluator follows the
    predefined declarations faithfully."""
    E, D, J, S, B, P1, B1, JONES, P2 = range(9)
    elements = {
        E: [], D: [("Databases", E)], J: [("Jones", E)], S: [("Smith", E)],
        B: [("paper", P1), ("paper", P2), ("paper", JONES),
            ("book", B1), ("book", JONES)],
        P1: [("refers-to", P2)],
        B1: [("refers-to", JONES), ("refers-to", P1)],
        JONES: [("author", J), ("title", D)],
        P2: [("author", S), ("title", D), ("refers-to", JONES)],
    }

    def p5(relation, l, x, m, y):
        return l < m or (l == m and (x, y) in relation)

    def comparable(relation, a, b):
        return p5(relation, a[0], a[1], b[0], b[1]) or \
            p5(relation, b[0], b[1], a[0], a[1])

    def phi(relation, x, y):
        if (x, y) in relation or (y, x) in relation:
            return False
        for u in elements[y]:
            if not all(comparable(relation, u, v) for v in elements[x]):
                continue
            ok = True
            for side in (x, y):
                for w in elements[side]:
                    if p5(relation, u[0], u[1], w[0], w[1]):
                        if not any(not comparable(relation, p, w)
                                   for p in elements[x]) or \
                           not any(not comparable(relation, q, w)
                                   for q in elements[y]):
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                return True
        return False

    relation = set()
    while True:
        new = {(x, y) for x in range(9) for y in range(9) if phi(relation, x, y)}
        if not new - relation:
            break
        relation |= new
    assert len(relation) == 36

    successors = {}
    for x, y in relation:
        if not any((x, z) in relation and (z, y) in relation for z in range(9)):
            successors[x] = y
    least = next(x for x in range(9)
                 if not any((z, x) in relation for z in range(9)))
    independent_chain = [least]
    while independent_chain[-1] in successors:
        independent_chain.append(successors[independent_chain[-1]])

    # map the evaluator's computed chain onto the same class indices
    ev = session_evaluator
    _, computed, _ = linear_order
    classes, edges = _chain_of(ev, computed.root)
    expected, atom, define, empty = atoms_system("mem://xcheck.xml")
    jones = define("JONESX", [("author", atom("Jones")),
                              ("title", atom("Databases"))])
    p2 = define("P2C", [("author", atom("Smith")), ("title", atom("Databases")),
                        ("refers-to", jones)])
    p1 = define("P1C", [("refers-to", p2)])
    b1 = define("B1C", [("refers-to", jones), ("refers-to", p1)])
    bib = define("BIBC", [("paper", p1), ("paper", p2), ("paper", jones),
                          ("book", b1), ("book", jones)])
    reps = [empty, atom("Databases"), atom("Jones"), atom("Smith"),
            bib, p1, b1, jones, p2]
    merged = reachable_system(ev, computed.root)
    merged.merge(expected)
    blocks = naive_bisimulation(merged)
    index_of_block = {blocks[rep]: i for i, rep in enumerate(reps)}
    computed_chain = {}
    for a, b in edges.items():
        computed_chain[index_of_block[blocks[classes[a]]]] = \
            index_of_block[blocks[classes[b]]]
    chain_from_least = [independent_chain[0]]
    while chain_from_least[-1] in computed_chain:
        chain_from_least.append(computed_chain[chain_from_least[-1]])
    assert chain_from_least == independent_chain
