import itertools
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypersetdb.approx import (approximation_url, generate_approximation_file,
                               make_approx_reader)
from hypersetdb.bisim import (
    BisimHelpers, BisimulationError, FactStore, OracleValue, Status,
    bisimilar, naive_bisimulation, naive_equal, saturate, stable_blocks,
    strongly_extensional,
)
from hypersetdb.experiments import build_chains
from hypersetdb.names import Element, EquationSystem, SetName
from hypersetdb.store import (MAX_FETCHES_IN_FLIGHT, FetchError, LatencyFetcher,
                              MemoryFetcher, SessionStore)
from hypersetdb.xmlwdb import SET_NS, from_equations, load_equations

from conftest import (bibdb_f1_text, bibdb_f2_text, check_fetch_threads,
                      random_closed_system, split_documents)

F1 = "mem://BibDB-f1.xml"
F2 = "mem://BibDB-f2.xml"


def closed_session(system: EquationSystem) -> SessionStore:
    store = SessionStore(MemoryFetcher({}))
    store.system.merge(system)
    return store


def simple_system(url="mem://s.xml", **equations) -> EquationSystem:
    """equations: name -> list of (label, name) pairs."""
    system = EquationSystem()
    for name, elements in equations.items():
        system.define(SetName(url, name),
                      [Element(l, SetName(url, m)) for l, m in elements])
    return system


# -- the worked example: x={y,z}, x'={z,y,z}, z={}, y={x}, y'={x'} ------------

def example_24() -> EquationSystem:
    return simple_system(
        x=[("null", "y"), ("null", "z")],
        xp=[("null", "z"), ("null", "y"), ("null", "z")],
        z=[],
        y=[("null", "x")],
        yp=[("null", "xp")],
    )


def test_order_and_repetition_are_ignored():
    system = example_24()
    store = closed_session(system)
    facts = FactStore()
    url = "mem://s.xml"
    assert bisimilar(SetName(url, "x"), SetName(url, "xp"), store, facts)
    assert bisimilar(SetName(url, "y"), SetName(url, "yp"), store, facts)
    assert not bisimilar(SetName(url, "x"), SetName(url, "z"), store, facts)


def test_naive_oracle_blocks_on_example():
    blocks = naive_bisimulation(example_24())
    url = "mem://s.xml"
    assert blocks[SetName(url, "x")] == blocks[SetName(url, "xp")]
    assert blocks[SetName(url, "y")] == blocks[SetName(url, "yp")]
    assert len(set(blocks.values())) == 3  # {x,x'}, {y,y'}, {z}


def test_empty_vs_nonempty_is_negative():
    system = simple_system(omega=[("null", "omega")], e=[])
    store = closed_session(system)
    assert not bisimilar(SetName("mem://s.xml", "omega"), SetName("mem://s.xml", "e"),
                         store, FactStore())


def test_cyclic_selfsets_are_postulated_equal():
    system = simple_system(o1=[("null", "o1")], o2=[("null", "o2")])
    store = closed_session(system)
    assert bisimilar(SetName("mem://s.xml", "o1"), SetName("mem://s.xml", "o2"),
                     store, FactStore())


# -- saturate -------------------------------------------------------------------

def test_saturate_base_cases():
    system = simple_system(a=[], b=[], c=[("l", "a")], d=[("m", "a")])
    url = "mem://s.xml"
    a, b = SetName(url, "a"), SetName(url, "b")
    facts = FactStore()
    facts.ask_question(a, b)
    facts.ask_question(SetName(url, "c"), SetName(url, "d"))
    assert saturate(facts, system)
    # saturate derives no Yes: a ? b stays open, and the postulate decides it
    assert facts.get(a, b) is Status.QUESTION
    assert bisimilar(a, b, closed_session(system), facts)
    # label mismatch: negative
    assert facts.get(SetName(url, "c"), SetName(url, "d")) is Status.NO


def test_saturate_transitivity():
    system = simple_system(a=[], b=[], c=[])
    url = "mem://s.xml"
    a, b, c = (SetName(url, n) for n in "abc")
    facts = FactStore()
    facts.ask_question(a, c)
    facts.resolve(a, b, True)
    facts.resolve(b, c, True)
    assert saturate(facts, system)
    assert facts.get(a, c) is Status.YES


def test_facts_are_monotone():
    facts = FactStore()
    url = "mem://s.xml"
    a, b = SetName(url, "a"), SetName(url, "b")
    facts.ask_question(a, b)
    facts.resolve(a, b, True)
    with pytest.raises(BisimulationError):
        facts.resolve(a, b, False)
    assert facts.get(b, a) is Status.YES  # symmetric by representation


def derive_round(facts: FactStore, equations) -> bool:
    """Reference for `saturate`, test only: one sweep of the negative rule
    over every open question whose names are in different classes, where a
    question left open asks, in both directions, the partner pairs of its
    elements that have no identical or Yes partner; returns whether the
    sweep resolved or asked anything.  Repeated until nothing changes it
    reaches the fixpoint `saturate` must reach."""
    changed = False

    def unmatched(xs, ys):
        return [(lx, mx) for lx, mx in xs
                if not any(lx == ly and facts.get(mx, my) is Status.YES for ly, my in ys)]

    def negative(xs, ys) -> bool:
        return any(all(lx != ly or facts.get(mx, my) is Status.NO for ly, my in ys)
                   for lx, mx in xs)

    for x, y in [key for key, status in facts.status.items()
                 if status is Status.QUESTION]:
        if facts.same_class(x, y):
            continue
        if x not in equations or y not in equations:
            continue
        xs, ys = equations[x], equations[y]
        if negative(xs, ys) or negative(ys, xs):
            changed |= facts.resolve(x, y, False)
            continue
        for left, right in ((xs, ys), (ys, xs)):
            for (lx, mx), (ly, my) in itertools.product(unmatched(left, right), right):
                if lx == ly and facts.get(mx, my) is None:
                    facts.ask_question(mx, my)
                    changed = True
    return changed


def test_saturate_reaches_the_reference_fixpoint():
    """Over growing open fragments of random systems, with questions asked
    and true Yes/No facts seeded between saturations, saturate leaves a
    fixpoint of the reference sweep, and every fact it holds is true.

    Which pairs get asked depends on the order of examination (a question
    resolved before it is examined asks nothing), so the result is not
    compared pair by pair with the sweep's own fixpoint."""
    rng = random.Random(5)

    def resolved(facts):
        return sum(status is not Status.QUESTION for status in facts.status.values())

    for trial in range(300):
        system = random_closed_system(rng, max_names=12, max_labels=3)
        blocks = naive_bisimulation(system)
        names = list(system.equations)
        facts = FactStore()
        equations = {}
        for step in range(rng.randint(1, 4)):
            for _ in range(rng.randint(0, len(names))):
                name = rng.choice(names)
                equations[name] = system.equations[name]
            for _ in range(rng.randint(0, 3 * len(names))):
                facts.ask_question(rng.choice(names), rng.choice(names))
            for _ in range(rng.randint(0, 3)):
                x, y = rng.choice(names), rng.choice(names)
                if x != y:
                    facts.resolve(x, y, blocks[x] == blocks[y])
            before = resolved(facts)
            assert saturate(facts, equations) == (resolved(facts) > before)
            where = "trial %d step %d" % (trial, step)
            assert derive_round(facts, equations) is False, where
            assert saturate(facts, equations) is False, where
            assert_facts_agree(facts, blocks)


def test_the_postulate_leaves_unreachable_questions_open():
    """u ? v reads a ? b2 and b ? b2, which wait for b2's document.  The
    oracle settles u ? v, so that document is never needed; x ? y is then
    decided by the postulate over c ? c2 alone, and a ? b2, which is false,
    stays open."""
    d1, d2 = "mem://d1.xml", "mem://d2.xml"
    first = simple_system(d1, x=[("l", "u"), ("k", "c")], y=[("l", "v"), ("k", "c2")],
                          c=[("k", "c")], c2=[("k", "c2")], u=[("l", "a"), ("l", "b")],
                          a=[], a2=[], b=[("m", "a")])
    b2 = SetName(d2, "b2")
    first.define(SetName(d1, "v"), [Element("l", SetName(d1, "a2")), Element("l", b2)])
    second = EquationSystem()
    second.define(b2, [Element("m", SetName(d1, "a"))])
    documents = {d1: from_equations(first, d1), d2: from_equations(second, d2)}
    blocks = naive_bisimulation(closed_union(documents))
    u, v = SetName(d1, "u"), SetName(d1, "v")

    def oracle(pairs):
        return [OracleValue.YES if {p, q} == {u, v} else OracleValue.UNKNOWN
                for p, q in pairs]

    fetcher = MemoryFetcher(documents)
    store, facts = SessionStore(fetcher), FactStore()
    assert bisimilar(SetName(d1, "x"), SetName(d1, "y"), store, facts,
                     BisimHelpers(oracle=oracle))
    assert fetcher.fetched == [d1]
    assert facts.get(SetName(d1, "a"), b2) is Status.QUESTION
    assert_facts_agree(facts, blocks)


# -- BibDB ground truth ---------------------------------------------------------

@pytest.fixture
def bibdb_store():
    fetcher = MemoryFetcher({F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2)})
    return SessionStore(fetcher), fetcher


def bibdb_names():
    return [SetName(F1, "BibDB"), SetName(F1, "b1"), SetName(F1, "b2"),
            SetName(F2, "p1"), SetName(F2, "p2"), SetName(F2, "p3")]


def test_bibdb_only_positive_pair_is_b2_p3(bibdb_store):
    store, _ = bibdb_store
    facts = FactStore()
    names = bibdb_names()
    positive = [(x, y) for x, y in itertools.combinations(names, 2)
                if bisimilar(x, y, store, facts)]
    assert positive == [(SetName(F1, "b2"), SetName(F2, "p3"))]
    assert len(list(itertools.combinations(names, 2))) == 15


def test_bisimilar_is_lazy_about_fetching(bibdb_store):
    store, fetcher = bibdb_store
    facts = FactStore()
    # p2 ? p3 touches only file 2
    assert not bisimilar(SetName(F2, "p2"), SetName(F2, "p3"), store, facts)
    assert set(fetcher.fetched) == {F2}


def test_resolved_facts_persist_for_the_session(bibdb_store):
    store, fetcher = bibdb_store
    facts = FactStore()
    assert bisimilar(SetName(F1, "b2"), SetName(F2, "p3"), store, facts)
    count = fetcher.fetch_count
    assert bisimilar(SetName(F1, "b2"), SetName(F2, "p3"), store, facts)
    assert fetcher.fetch_count == count


def with_approximation_files(documents):
    """The documents plus the approximation file next to each."""
    out = dict(documents)
    for url, text in documents.items():
        out[approximation_url(url)] = generate_approximation_file(
            url, load_equations(text, url))
    return out


def test_approximation_files_are_read_once_per_fact_store():
    fetcher = MemoryFetcher(with_approximation_files(
        {F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2)}))
    store, facts = SessionStore(fetcher), FactStore()
    helpers = BisimHelpers(approx_reader=make_approx_reader(fetcher))
    assert not bisimilar(SetName(F1, "b1"), SetName(F2, "p1"), store, facts, helpers)
    assert bisimilar(SetName(F1, "b2"), SetName(F2, "p3"), store, facts, helpers)
    assert fetcher.fetched.count(approximation_url(F1)) == 1
    assert fetcher.fetched.count(approximation_url(F2)) == 1


def foreign_fact_documents():
    """a#r = {p: b#x} and a#s = {p: b#y}, where b#x = {k: {}} and b#y = {},
    with an approximation file next to a.xml that states b#x = b#y."""
    wdb = '<set:eqns xmlns:set="%s">%%s</set:eqns>' % SET_NS
    return {
        "mem://a.xml": wdb % ('<set:eqn set:id="r"><p set:href="mem://b.xml#x"/></set:eqn>'
                              '<set:eqn set:id="s"><p set:href="mem://b.xml#y"/></set:eqn>'),
        "mem://b.xml": wdb % ('<set:eqn set:id="x"><k/></set:eqn>'
                              '<set:eqn set:id="y"/>'),
        "mem://a.approximation.xml": (
            '<simple-approximation><facts set_name="mem://b.xml#x">'
            '<fact set_name="mem://b.xml#y" value="yes"/></facts></simple-approximation>'),
    }


def test_approximation_facts_about_another_documents_names_are_ignored():
    fetcher = MemoryFetcher(foreign_fact_documents())
    for helpers in (None, BisimHelpers(approx_reader=make_approx_reader(fetcher))):
        assert not bisimilar(SetName("mem://a.xml", "r"), SetName("mem://a.xml", "s"),
                             SessionStore(fetcher), FactStore(), helpers)


# -- oracle integration -----------------------------------------------------------

def test_oracle_answer_skips_downloads(bibdb_store):
    store, fetcher = bibdb_store

    def oracle(pairs):
        return [OracleValue.YES if {x.simple, y.simple} == {"b2", "p3"}
                else OracleValue.UNKNOWN for x, y in pairs]

    facts = FactStore()
    helpers = BisimHelpers(oracle=oracle)
    assert bisimilar(SetName(F1, "b2"), SetName(F2, "p3"), store, facts, helpers)
    assert fetcher.fetch_count == 0


def test_helper_disagreement_with_local_facts_is_a_hard_error(bibdb_store):
    store, _ = bibdb_store
    facts = FactStore()
    # resolve b2 = p3 locally first ...
    assert bisimilar(SetName(F1, "b2"), SetName(F2, "p3"), store, facts)

    # ... then feed a contradicting "approximation" fact during a later call
    def lying_reader(url):
        return [(SetName(F1, "b2"), SetName(F2, "p3"), False)]

    helpers = BisimHelpers(approx_reader=lying_reader)
    with pytest.raises(BisimulationError):
        bisimilar(SetName(F1, "BibDB"), SetName(F2, "p1"), store, facts, helpers)


# -- agreement with the brute-force oracle -----------------------------------------

def test_bisimilar_agrees_with_naive_on_random_systems():
    rng = random.Random(42)
    for trial in range(60):
        system = random_closed_system(rng, max_names=12)
        blocks = naive_bisimulation(system)
        store = closed_session(system)
        facts = FactStore()
        names = list(system.equations)
        for x, y in itertools.combinations(names, 2):
            assert bisimilar(x, y, store, facts) == (blocks[x] == blocks[y]), \
                "disagreement on trial %d: %s ? %s" % (trial, x.full, y.full)


def test_strongly_extensional_systems_have_singleton_blocks():
    system = simple_system(a=[], b=[("l", "a")], c=[("m", "a")])
    assert strongly_extensional(system)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_yes_facts_form_an_equivalence_after_saturation(seed):
    """After a session of questions, `decided` answers Yes symmetrically
    and transitively: a pair that holds by transitivity needs no question."""
    rng = random.Random(seed)
    system = random_closed_system(rng, max_names=10)
    store = closed_session(system)
    facts = FactStore()
    names = list(system.equations)
    for x, y in itertools.combinations(names, 2):
        bisimilar(x, y, store, facts)
    for a in names:
        for b in names:
            if facts.decided(a, b):
                assert facts.decided(b, a)
                for c in names:
                    if facts.decided(b, c):
                        assert facts.decided(a, c), (a.full, b.full, c.full)


def test_lazy_bisimilar_over_documents_agrees_with_naive():
    """Random systems split over 2-4 documents fetched on demand, with a
    latency so that a round's fetches overlap, half of them with
    approximation files; questions in random order share one session, and
    each call leaves the facts saturated."""
    rng = random.Random(11)
    for trial in range(80):
        system = random_closed_system(rng, max_names=14, max_labels=3)
        blocks = naive_bisimulation(system)
        documents, home = split_documents(system, rng, rng.randint(2, 4))
        helpers = None
        if trial % 2:
            documents = with_approximation_files(documents)
        fetcher = LatencyFetcher(MemoryFetcher(documents), 1.0)
        if trial % 2:
            helpers = BisimHelpers(approx_reader=make_approx_reader(fetcher))
        store, facts = SessionStore(fetcher), FactStore()
        pairs = list(itertools.combinations(system.equations, 2))
        rng.shuffle(pairs)
        for x, y in pairs:
            assert bisimilar(home[x], home[y], store, facts, helpers) == \
                (blocks[x] == blocks[y]), \
                "trial %d: %s ? %s" % (trial, x.full, y.full)
            assert saturate(facts, store.system.equations) is False


def test_every_pair_asked_on_a_fresh_fact_store_agrees_with_naive():
    """Each question alone, with no facts from earlier questions: on closed
    systems, and on systems split over 2-4 documents fetched on demand."""
    rng = random.Random(17)
    for trial in range(40):
        system = random_closed_system(rng, max_names=12, max_labels=3)
        blocks = naive_bisimulation(system)
        store = closed_session(system)
        for x, y in itertools.combinations(system.equations, 2):
            assert bisimilar(x, y, store, FactStore()) == (blocks[x] == blocks[y]), \
                "closed trial %d: %s ? %s" % (trial, x.full, y.full)
    for trial in range(40):
        system = random_closed_system(rng, max_names=12, max_labels=3)
        blocks = naive_bisimulation(system)
        documents, home = split_documents(system, rng, rng.randint(2, 4))
        for x, y in itertools.combinations(system.equations, 2):
            store = SessionStore(MemoryFetcher(documents))
            assert bisimilar(home[x], home[y], store, FactStore()) == \
                (blocks[x] == blocks[y]), \
                "split trial %d: %s ? %s" % (trial, x.full, y.full)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_a_straight_chain_question_asks_one_pair_per_level(n):
    """x1 ? x1' over two straight chains of n names, 5 files per side, reads
    only x_i ? x_i' on each level: n questions, and each file fetched once."""
    scenario = build_chains(files=5, names=n)
    fetcher = MemoryFetcher(scenario.documents)
    store, facts = SessionStore(fetcher), FactStore()
    assert bisimilar(*scenario.question, store, facts)
    assert len(facts.status) == n
    assert fetcher.fetch_count == 10


HASH_SEED_SCRIPT = """
import itertools, random
from conftest import random_closed_system, split_documents
from test_bisim import with_approximation_files
from hypersetdb.approx import make_approx_reader
from hypersetdb.bisim import (BisimHelpers, FactStore, OracleValue, bisimilar,
                              naive_bisimulation)
from hypersetdb.engine import BisimulationEngine
from hypersetdb.store import MemoryFetcher, SessionStore


def report(store, fetcher, facts):
    # the order of fetcher calls within a concurrent round is not defined;
    # the merge order and what was fetched how often are
    print(list(store.loaded_documents))
    print(sorted(fetcher.fetched))
    print(sorted((x.full, y.full, s.value) for (x, y), s in facts.status.items()))


def recording_oracle(blocks, asks):
    # records each ask in order, and knows the answer to every third
    def oracle(pairs):
        values = []
        for x, y in pairs:
            asks.append((x.full, y.full))
            values.append(OracleValue.UNKNOWN if len(asks) % 3 else
                          OracleValue.YES if blocks[x] == blocks[y] else OracleValue.NO)
        return values
    return oracle


rng = random.Random(3)
system = random_closed_system(rng, max_names=24, max_labels=3)
documents, home = split_documents(system, rng, 6)
documents = with_approximation_files(documents)
names = sorted(home.values())
for helped in (False, True):
    # one session for many questions, then one per question
    for pairs in [itertools.combinations(names[:10], 2)] + \
            [[pair] for pair in itertools.combinations(names[::3], 2)]:
        fetcher = MemoryFetcher(documents)
        store, facts = SessionStore(fetcher), FactStore()
        helpers = BisimHelpers(approx_reader=make_approx_reader(fetcher)) if helped else None
        for x, y in pairs:
            bisimilar(x, y, store, facts, helpers)
        report(store, fetcher, facts)
# with an oracle, whose asks are in a defined order too
blocks = naive_bisimulation(system)
fetcher, asks = MemoryFetcher(documents), []
store, facts = SessionStore(fetcher), FactStore()
helpers = BisimHelpers(oracle=recording_oracle({home[n]: b for n, b in blocks.items()}, asks))
for x, y in itertools.combinations(names[:10], 2):
    bisimilar(x, y, store, facts, helpers)
assert asks
print(asks)
report(store, fetcher, facts)
# from every root, then from each root alone, so that the walk fetches documents
urls = sorted({n.url for n in names})
for roots in [urls] + [[url] for url in urls]:
    fetcher = MemoryFetcher(documents)
    engine = BisimulationEngine(roots, fetcher, use_approximations=True)
    engine.start()
    engine.join()
    report(engine.store, fetcher, engine.facts)
"""


def test_facts_and_fetches_identical_across_hash_seeds():
    root = Path(__file__).resolve().parent
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(root.parent / "src"), str(root)]))
        result = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count("approximation.xml") > 0
    assert outputs[0] == outputs[1]


# -- concurrent rounds ---------------------------------------------------------

ROOT = "mem://root.xml"


def fan_out_documents(width: int):
    """x = {l: m} and y = {l: n} over the m and n of `width` leaf documents,
    each a one-element set on the empty set e in the root document: m holds
    it under label b in even leaves, n in every third leaf, a elsewhere, so
    x = y while m and n differ in some leaves.  Returns the documents and
    the leaf URLs, which sort in leaf order."""
    e = SetName(ROOT, "e")
    leaves = ["mem://leaf%02d.xml" % i for i in range(width)]
    root = EquationSystem()
    root.define(SetName(ROOT, "x"), [Element("l", SetName(url, "m")) for url in leaves])
    root.define(SetName(ROOT, "y"), [Element("l", SetName(url, "n")) for url in leaves])
    root.define(e, [])
    documents = {ROOT: from_equations(root, ROOT)}
    for i, url in enumerate(leaves):
        leaf = EquationSystem()
        leaf.define(SetName(url, "m"), [Element("a" if i % 2 else "b", e)])
        leaf.define(SetName(url, "n"), [Element("a" if i % 3 else "b", e)])
        documents[url] = from_equations(leaf, url)
    return documents, leaves


def closed_union(documents) -> EquationSystem:
    system = EquationSystem()
    for url, text in documents.items():
        system.merge(load_equations(text, url))
    return system


def test_a_rounds_documents_are_fetched_at_the_same_time():
    """The first round of x ? y needs both names' documents; each fetch waits
    for the other, so one after the other they break the barrier."""
    a, b = "mem://a.xml", "mem://b.xml"
    documents = {a: from_equations(simple_system(a, x=[("l", "e")], e=[]), a),
                 b: from_equations(simple_system(b, y=[("l", "f")], f=[]), b)}
    barrier = threading.Barrier(2, timeout=5)
    inner = MemoryFetcher(documents)

    def fetcher(url):
        barrier.wait()
        return inner(url)

    store = SessionStore(fetcher)
    assert bisimilar(SetName(a, "x"), SetName(b, "y"), store, FactStore())
    assert sorted(inner.fetched) == [a, b]


def test_a_fan_out_round_keeps_at_most_the_limit_in_flight():
    documents, leaves = fan_out_documents(40)
    inner = MemoryFetcher(documents)
    gauge = threading.Condition()
    state = {"started": 0, "in_flight": 0, "peak": 0, "gave_up": False}

    def fetcher(url):
        if url == ROOT:
            return inner(url)
        with gauge:
            state["started"] += 1
            state["in_flight"] += 1
            state["peak"] = max(state["peak"], state["in_flight"])
            gauge.notify_all()
            # the first fetches wait until the limit is in flight, and a
            # moment longer for any fetch past it, so that the peak does not
            # depend on how fast threads start
            if state["started"] <= MAX_FETCHES_IN_FLIGHT:
                if not gauge.wait_for(lambda: state["peak"] >= MAX_FETCHES_IN_FLIGHT
                                      or state["gave_up"], timeout=5):
                    state["gave_up"] = True
                gauge.wait_for(lambda: state["peak"] > MAX_FETCHES_IN_FLIGHT, timeout=0.2)
        try:
            return inner(url)
        finally:
            with gauge:
                state["in_flight"] -= 1

    store = SessionStore(fetcher)
    assert bisimilar(SetName(ROOT, "x"), SetName(ROOT, "y"), store, FactStore())
    assert state["peak"] == MAX_FETCHES_IN_FLIGHT and not state["gave_up"]
    assert Counter(inner.fetched) == Counter([ROOT] + leaves)
    assert list(store.loaded_documents) == [ROOT] + leaves


def assert_facts_agree(facts: FactStore, blocks) -> None:
    for (p, q), status in facts.status.items():
        if status is not Status.QUESTION:
            assert (status is Status.YES) == (blocks[p] == blocks[q]), (p.full, q.full)


@pytest.mark.parametrize("failing", [0, 5])
def test_a_failed_fetch_in_a_concurrent_round_leaves_the_facts_sound(failing):
    """A document of the ten-document round fails: the documents before it
    in merge order are merged, no fetch outlives the call, the fetch threads
    stay bounded, the facts stay sound, and the next call with a working
    fetcher answers right."""
    documents, leaves = fan_out_documents(10)
    system = closed_union(documents)
    blocks = naive_bisimulation(system)
    x, y = SetName(ROOT, "x"), SetName(ROOT, "y")
    served = {url: text for url, text in documents.items() if url != leaves[failing]}

    def batch(wrap):
        with pytest.raises(FetchError):
            bisimilar(x, y, SessionStore(wrap(MemoryFetcher(served))), FactStore())

    check_fetch_threads(batch)
    store = SessionStore(MemoryFetcher(served))
    facts = FactStore()
    with pytest.raises(FetchError):
        bisimilar(x, y, store, facts)
    assert list(store.loaded_documents) == [ROOT] + leaves[:failing]
    # the facts were saturated before the round; only merged documents
    # can resolve more
    assert saturate(facts, store.system.equations) is (failing > 0)
    assert_facts_agree(facts, blocks)

    store.fetcher = MemoryFetcher(documents)
    assert bisimilar(x, y, store, facts) == (blocks[x] == blocks[y])
    for p, q in itertools.combinations(sorted(system.equations), 2):
        assert bisimilar(p, q, store, facts) == (blocks[p] == blocks[q])
    assert_facts_agree(facts, blocks)


# -- the refinement kernel -------------------------------------------------------

def same_partition(blocks, expected):
    """Whether two block maps over the same names group them alike."""
    pairs = set(zip(blocks.values(), (expected[n] for n in blocks)))
    return len(pairs) == len(set(blocks.values())) == len(set(expected[n] for n in blocks))


def test_stable_blocks_agrees_with_naive_on_random_closed_systems():
    rng = random.Random(31)
    for trial in range(200):
        system = random_closed_system(rng, max_names=25, max_labels=3,
                                      acyclic=trial % 4 == 0)
        blocks = stable_blocks(system.equations, system.equations)
        assert set(blocks) == set(system.equations)
        assert same_partition(blocks, naive_bisimulation(system)), trial
        # numbered in the sorted order of each block's first name
        firsts = [blocks[n] for n in sorted(blocks)]
        assert list(dict.fromkeys(firsts)) == list(range(len(set(firsts))))


def test_stable_blocks_keys_outside_members_by_outside():
    """Part of the names are left out and keyed by their naive blocks: the
    result is the partition of the names given in which a member left out
    counts as an atom named by its key.  It is sound, since the keys are."""
    rng = random.Random(37)
    for trial in range(200):
        system = random_closed_system(rng, max_names=25, max_labels=3)
        naive = naive_bisimulation(system)
        inside = [n for n in system.equations if rng.random() < 0.6]
        blocks = stable_blocks(inside, system.equations, naive.__getitem__)
        # the reference: every left-out member becomes the atom of its key,
        # a set distinct from every other that no name given can equal
        atoms = EquationSystem()
        for n in inside:
            atoms.define(n, [el if el.member in blocks else
                             Element(el.label, SetName("mem://atom", "k%d" % naive[el.member]))
                             for el in system.equations[n]])
        for key in set(naive.values()):
            atom = SetName("mem://atom", "k%d" % key)
            atoms.define(atom, [Element("atom-%d" % key, atom)])
        reference = naive_bisimulation(atoms)
        assert same_partition(blocks, reference), trial
        for x, y in itertools.combinations(inside, 2):
            if blocks[x] == blocks[y]:
                assert naive[x] == naive[y], trial


class CountingEquations(dict):
    def __init__(self, equations):
        super().__init__(equations)
        self.reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return super().__getitem__(name)


def test_stable_blocks_signs_a_straight_chain_in_linear_work():
    """Only the predecessor of the name whose block changed is signed again,
    so a chain of n names is read about 3n times, not n squared."""
    n = 2000
    names = [SetName("mem://chain.xml", "x%04d" % i) for i in range(n)]
    equations = CountingEquations(
        {x: [Element("e", names[i + 1])] if i + 1 < n else [] for i, x in enumerate(names)})
    blocks = stable_blocks(names, equations)
    assert sorted(blocks.values()) == list(range(n))
    assert equations.reads < 4 * n, equations.reads


def marked_cycle(url: str, n: int) -> EquationSystem:
    """x0 -> x1 -> ... -> x(n-1) -> x0, with x0 also holding the empty set:
    every name is told apart by its distance to x0."""
    system = EquationSystem()
    names = [SetName(url, "x%d" % i) for i in range(n)]
    system.define(SetName(url, "e"), [])
    for i, x in enumerate(names):
        elements = [Element("next", names[(i + 1) % n])]
        if i == 0:
            elements.append(Element("mark", SetName(url, "e")))
        system.define(x, elements)
    return system


def test_bisimilar_on_a_cycle_of_distinguishable_names():
    """At exhaustion the 400 names of the postulated questions are merged by
    the refinement kernel; the answers agree with the brute-force oracle."""
    system = marked_cycle("mem://a.xml", 200)
    system.merge(marked_cycle("mem://b.xml", 200))
    blocks = naive_bisimulation(system)
    store, facts = closed_session(system), FactStore()
    a = [SetName("mem://a.xml", "x%d" % i) for i in (0, 1, 117, 199)]
    b = [SetName("mem://b.xml", "x%d" % i) for i in (0, 1, 117, 199)]
    assert bisimilar(a[0], b[0], store, facts) is True
    for x, y in itertools.product(a, b):
        assert bisimilar(x, y, store, facts) == (blocks[x] == blocks[y]), (x.full, y.full)
    assert sum(blocks[x] == blocks[y] for x, y in itertools.product(a, b)) == 4
