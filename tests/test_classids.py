"""Interned class ids: equality, membership and decorate/Can over them agree
with brute-force partition refinement and with the lazy kernel, on acyclic,
cyclic and split-over-documents systems."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hypersetdb import classids as classids_module
from hypersetdb import evaluator as evaluator_module
from hypersetdb.analysis import analyze
from hypersetdb.bisim import (FactStore, bisimilar, naive_bisimulation, stable_blocks,
                              strongly_extensional)
from hypersetdb.classids import ClassIds
from hypersetdb.cli import Session, SessionConfig
from hypersetdb.evaluator import Evaluator
from hypersetdb.names import Element, EquationSystem, SetName
from hypersetdb.parser import parse
from hypersetdb.store import FileFetcher, MemoryFetcher, SessionStore

from conftest import (bibdb_f1_text, bibdb_f2_text, duplicate_and_shuffle,
                      random_closed_system, split_documents)

ROOT = Path(__file__).resolve().parent.parent
F1 = "mem://BibDB-f1.xml"
F2 = "mem://BibDB-f2.xml"
LABELS = ("l0", "l1")


def make_evaluator(documents=None) -> Evaluator:
    return Evaluator(SessionStore(MemoryFetcher(documents or {})))


def run(evaluator, source):
    return evaluator.eval_query(analyze(parse(source), evaluator.library))


def twin_system(rng, trial, acyclic):
    """A random system plus a renamed, shuffled and duplicated copy."""
    system = random_closed_system(rng, max_names=7, max_labels=2,
                                  url="mem://ids%d.xml" % trial, acyclic=acyclic)
    twin, _ = duplicate_and_shuffle(system, rng, url="mem://ids%dt.xml" % trial)
    system.merge(twin)
    return system


def reaches_cycle(system, name):
    return any(n in system.reachable(el.member)
               for n in system.reachable(name) for el in system.equations[n])


def naive_member(system, blocks, label, member, target):
    return any(el.label == label and blocks[el.member] == blocks[member]
               for el in system.equations[target])


def assert_agrees_with_naive(ev, system, kernel_store):
    """Equality, membership and decorate's grouping against the partition
    of `system`, and equality against `bisimilar` over `kernel_store`."""
    blocks = naive_bisimulation(system)
    names = sorted(system.equations, key=lambda n: n.full)
    facts = FactStore()
    for x in names:
        for y in names:
            expected = blocks[x] == blocks[y]
            assert ev.equal(x, y) is expected, (x, y)
            assert bisimilar(x, y, kernel_store, facts) is expected, (x, y)
    for target in names:
        for member in names:
            for label in LABELS:
                assert ev.eval_membership(label, member, target) is \
                    naive_member(system, blocks, label, member, target)
    canonical = ev._canonical_names(names)
    for name in names:
        assert canonical[name] == min((n for n in names if blocks[n] == blocks[name]),
                                      key=lambda n: n.full)


@pytest.mark.parametrize("acyclic", [True, False], ids=["acyclic", "cyclic"])
def test_ids_equality_membership_and_grouping_agree_with_naive(acyclic):
    rng = random.Random(31 if acyclic else 32)
    on_cycles = 0
    for trial in range(40):
        system = twin_system(rng, trial, acyclic)
        ev = make_evaluator()
        ev.store.system.merge(system)
        kernel_store = SessionStore(MemoryFetcher({}))
        kernel_store.system.merge(system)
        assert_agrees_with_naive(ev, system, kernel_store)
        for name in system.equations:
            # the system is closed, so every closure is loaded: an id each,
            # cycles included
            assert ev.class_ids.of(name) is not None
            on_cycles += reaches_cycle(system, name)
    assert (on_cycles == 0) is acyclic


@pytest.mark.parametrize("acyclic", [True, False], ids=["acyclic", "cyclic"])
def test_can_over_ids_agrees_with_naive(acyclic):
    rng = random.Random(41 if acyclic else 42)
    for trial in range(8):
        system = twin_system(rng, trial, acyclic)
        root = next(iter(system.equations))
        ev = make_evaluator()
        ev.store.system.merge(system)
        result = run(ev, "set query call Can(%s);" % root.full).root
        closure = EquationSystem()
        for name in ev.store.system.reachable(result):
            closure.define(name, ev.store.system[name])
        assert strongly_extensional(closure)
        closure.merge(system)
        blocks = naive_bisimulation(closure)
        assert blocks[result] == blocks[root]


@pytest.mark.parametrize("acyclic", [True, False], ids=["acyclic", "cyclic"])
def test_split_documents_get_ids_only_once_fetched(acyclic):
    rng = random.Random(51 if acyclic else 52)
    for trial in range(25):
        original = random_closed_system(rng, max_names=9, max_labels=2,
                                        url="mem://orig%d.xml" % trial,
                                        acyclic=acyclic)
        documents, home = split_documents(original, rng, 3,
                                          base="mem://split%d-" % trial)
        system = EquationSystem()
        for name, elements in original.equations.items():
            system.define(home[name], [Element(el.label, home[el.member])
                                       for el in elements])
        blocks = naive_bisimulation(system)
        ev = make_evaluator(documents)
        first = sorted(documents)[0]
        ev.store.load_documents([first])
        for name in system.equations:
            # an id exactly when the closure is loaded
            loaded = all(n.url == first for n in system.reachable(name))
            assert (ev.class_ids.of(name) is not None) is loaded
        assert ev.store.fetcher.fetch_count == 1
        # equality still agrees with the partition: the kernel fetches
        names = sorted(system.equations, key=lambda n: n.full)
        for x in names:
            for y in names:
                assert ev.equal(x, y) is (blocks[x] == blocks[y])
        for url in sorted(documents):
            ev.store.load_documents([url])
        for x in names:
            ix = ev.class_ids.of(x)
            assert ix is not None
            for y in names:
                assert (ix == ev.class_ids.of(y)) is (blocks[x] == blocks[y])
        assert_agrees_with_naive(ev, system, SessionStore(MemoryFetcher(documents)))


def test_documents_loaded_one_at_a_time_get_ids_that_agree_with_naive():
    """Cyclic systems split over documents that are loaded one at a time;
    after each load the names are interned in shuffled order.  A name has
    an id exactly when its closure is loaded, and ids are equal exactly
    when the names are bisimilar."""
    rng = random.Random(61)
    on_cycles = 0
    for trial in range(40):
        original = random_closed_system(rng, max_names=12, max_labels=2,
                                        url="mem://step%d.xml" % trial)
        documents, home = split_documents(original, rng, 4,
                                          base="mem://step%d-" % trial)
        system = EquationSystem()
        for name, elements in original.equations.items():
            system.define(home[name], [Element(el.label, home[el.member])
                                       for el in elements])
        blocks = naive_bisimulation(system)
        ev = make_evaluator(documents)
        names = sorted(system.equations)
        loaded = set()
        for url in rng.sample(sorted(documents), len(documents)):
            ev.store.load_documents([url])
            loaded.add(url)
            rng.shuffle(names)
            ids = {name: ev.class_ids.of(name) for name in names}
            for name in names:
                closed = all(n.url in loaded for n in system.reachable(name))
                assert (ids[name] is not None) is closed
            with_ids = [name for name in names if ids[name] is not None]
            for x in with_ids:
                for y in with_ids:
                    assert (ids[x] == ids[y]) is (blocks[x] == blocks[y]), (x, y)
        assert len(with_ids) == len(names)
        on_cycles += sum(reaches_cycle(system, name) for name in names)
    assert on_cycles > 0


def test_distinct_cyclic_classes_are_interned_in_linear_work(monkeypatch):
    """k pairwise distinct cyclic classes x_i = {s: x_i, t: a_i}, interned
    one at a time: no earlier class shares a new one's key, so each
    refinement holds one name, not one per cyclic class so far."""
    refined = []

    def counting(names, equations, outside=None):
        names = list(names)
        refined.append(len(names))
        return stable_blocks(names, equations, outside)
    monkeypatch.setattr(classids_module, "stable_blocks", counting)
    k = 2000
    ev = make_evaluator()
    loops = [SetName("mem://loops.xml", "x%d" % i) for i in range(k)]
    for i, x in enumerate(loops):
        ev.store.define(x, [Element("s", x), Element("t", ev.atom("a%d" % i))])
        assert ev.class_ids.of(x) is not None
    assert len({ev.class_ids.of(x) for x in loops}) == k
    assert sum(refined) <= 2 * k, sum(refined)


# -- robustness -----------------------------------------------------------------

def chain(url, length):
    system = EquationSystem()
    names = [SetName(url, "c%d" % i) for i in range(length)]
    for index, name in enumerate(names):
        elements = [Element("next", names[index + 1])] if index + 1 < length else []
        system.define(name, elements)
    return system, names


def test_long_chain_gets_ids_without_recursion_error():
    ev = make_evaluator()
    one, names = chain("mem://chain-a.xml", 5000)
    two, others = chain("mem://chain-b.xml", 5000)
    ev.store.system.merge(one)
    ev.store.system.merge(two)
    assert ev.class_ids.of(names[0]) is not None
    assert ev.equal(names[0], others[0])
    assert not ev.equal(names[0], others[1])
    assert len({ev.class_ids.of(name) for name in names + others}) == 5000


def test_long_ring_with_long_tail_gets_one_id_without_recursion_error():
    # every name of the ring and of the tail into it is {next: itself}
    ev = make_evaluator()
    system, names = chain("mem://ring.xml", 10000)
    system.equations[names[-1]] = [Element("next", names[5000])]
    ev.store.system.merge(system)
    omega = SetName("mem://omega.xml", "omega")
    ev.store.define(omega, [Element("next", omega)])
    assert ev.class_ids.of(omega) is not None
    assert {ev.class_ids.of(name) for name in names} == {ev.class_ids.of(omega)}


def test_name_over_interned_members_is_interned_alone(monkeypatch):
    """A generated name whose members have ids gets its own id from one look
    at its equation: the search interns no other name."""
    ev = make_evaluator()
    a = ev.atom("a")
    inner = ev.define_fresh([Element("x", a), Element("y", a)])
    assert ev.class_ids.of(inner) is not None
    interned = []
    original = ClassIds._intern

    def recording(self, signature):
        interned.append(signature)
        return original(self, signature)
    monkeypatch.setattr(ClassIds, "_intern", recording)
    outer = ev.define_fresh([Element("z", inner)])
    assert ev.class_ids.of(outer) is not None
    assert len(interned) == 1
    twin = ev.define_fresh([Element("y", a), Element("x", a)])
    again = ev.define_fresh([Element("z", twin)])
    assert ev.equal(outer, again)
    assert len(interned) == 3           # again and twin, nothing below them
    assert ev.class_ids.ids[twin] == ev.class_ids.ids[inner]


def test_cyclic_and_incomplete_names_are_not_searched_again(monkeypatch):
    ev = make_evaluator({F1: bibdb_f1_text(F1, F2)})
    omega = SetName("mem://c.xml", "omega")
    above = SetName("mem://c.xml", "above")
    system = EquationSystem()
    system.define(omega, [Element("l", omega)])
    system.define(above, [Element("l", omega)])
    ev.store.system.merge(system)
    ev.store.load_documents([F1])          # BibDB's papers live in F2, not fetched
    bibdb = SetName(F1, "BibDB")
    # above = {l: omega} is bisimilar to omega = {l: omega}
    assert ev.class_ids.of(above) == ev.class_ids.of(omega) is not None
    assert ev.class_ids.of(bibdb) is None
    searches = []
    original = ClassIds._intern_closure

    def counting(self, root):
        searches.append(root)
        return original(self, root)
    monkeypatch.setattr(ClassIds, "_intern_closure", counting)
    for _ in range(3):
        assert ev.class_ids.of(above) == ev.class_ids.of(omega)
        assert ev.class_ids.of(bibdb) is None
    assert searches == []
    ev.store.fetcher.add(F2, bibdb_f2_text(F1, F2))
    ev.store.load_documents([F2])
    assert ev.class_ids.of(bibdb) is not None
    assert searches == [bibdb]


def test_linear_order_query_pair_never_calls_bisimilar(monkeypatch):
    calls = []
    original = evaluator_module.bisimilar

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)
    monkeypatch.setattr(evaluator_module, "bisimilar", counting)
    ev = make_evaluator({F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2)})
    run(ev, "set query let set constant BibDB = %s#BibDB in "
            "call StrictLinOrder_on_TC(BibDB) endlet;" % F1)
    run(ev, "set query let set constant BibDB = %s#BibDB in "
            "call SuccessorPairs( call StrictLinOrder_on_TC(BibDB) ) endlet;" % F1)
    assert calls == []
    assert ev.facts.status == {}


@pytest.mark.parametrize("seed", [101, 102])
def test_loaded_bibdb_session_never_calls_bisimilar(seed, tmp_path, monkeypatch):
    """The benchmark's bib-session commands, `decorate` and `Can` included,
    with the BibDB documents loaded first: every name they compare has its
    closure in the store, the cyclic decorations too, so class ids decide
    every equality."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import inputs
    calls = []
    original = evaluator_module.bisimilar

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)
    monkeypatch.setattr(evaluator_module, "bisimilar", counting)
    rng = random.Random("bib-session/%d" % seed)
    wdb = inputs.bibdb(rng, tmp_path)
    commands = inputs.bib_commands(wdb, rng)
    assert any("Can" in command.text for command in commands)
    session = Session(SessionConfig(show_time=False, allow_network=False),
                      fetcher=FileFetcher(allow_network=False))
    session.store.load_documents(sorted(wdb.documents))
    for command in commands:
        session.run_command(command.text)
    assert calls == []
    assert session.evaluator.facts.status == {}


def test_decorate_over_names_without_ids_matches_a_loaded_session(monkeypatch):
    """A fresh session decorates a graph of document names before it loads
    any document, so none of the names has a class id and `decorate` groups
    them by `equal`; the reply is that of a session that loaded both
    documents first, where class ids group them."""
    def bibdb_session():
        fetcher = MemoryFetcher({F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2)})
        return Session(SessionConfig(show_time=False), fetcher=fetcher)

    calls = []
    original = Evaluator.equal

    def counting(self, first, second):
        calls.append((first, second))
        return original(self, first, second)
    monkeypatch.setattr(Evaluator, "equal", counting)
    # the cycle b2 -> p3 -> b1 -> b2, decorated at p3; b2 = p3
    query = ("set query decorate ({ 'e':call Pair(%s#b2, %s#p3), "
             "'e':call Pair(%s#p3, %s#b1), 'e':call Pair(%s#b1, %s#b2) }, %s#p3);"
             % (F1, F2, F2, F1, F1, F1, F2))
    loaded = bibdb_session()
    assert loaded.run_command("boolean query %s#b2 = %s#p3;" % (F1, F2)).endswith(
        "Result = true")
    del calls[:]
    expected = loaded.run_command(query)
    by_ids = len(calls)
    del calls[:]
    assert bibdb_session().run_command(query) == expected
    assert "Result = {'e':Result, 'e':res" in expected
    assert len(calls) > by_ids


@pytest.mark.parametrize("workload", ["bib-session", "linorder"])
def test_benchmark_checks_catch_an_equality_that_merges_class_ids(
        workload, tmp_path, monkeypatch):
    """perfbench's answer checks still catch a wrong evaluator equality now
    that class ids decide it: every id reads 0 and `bisimilar` answers Yes
    for the names without one."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import TOY, run_workload
    original = ClassIds.of

    def merged(self, name):
        return None if original(self, name) is None else 0

    def always_true(x, y, store, facts, helpers=None):
        facts.resolve(x, y, True)
        return True
    monkeypatch.setattr(ClassIds, "of", merged)
    monkeypatch.setattr(evaluator_module, "bisimilar", always_true)
    run = run_workload(workload, seed=7, seconds=0.1, trace=False,
                       workdir=tmp_path, sizes=TOY)
    assert run.attempted > 0
    assert run.failed > 0


# -- hash-seed invariance -------------------------------------------------------

HASH_SEED_SCRIPT = r"""
import random
from hypersetdb.analysis import analyze
from hypersetdb.evaluator import Evaluator, postprocess
from hypersetdb.parser import parse
from hypersetdb.store import FileFetcher, MemoryFetcher, SessionStore
from conftest import bibdb_f1_text, bibdb_f2_text, random_closed_system

F1, F2 = "mem://BibDB-f1.xml", "mem://BibDB-f2.xml"
ev = Evaluator(SessionStore(MemoryFetcher({F1: bibdb_f1_text(F1, F2),
                                           F2: bibdb_f2_text(F1, F2)})))

def show(source):
    result = ev.eval_query(analyze(parse(source), ev.library))
    print(postprocess(result, ev.store))

show("set query call Can(%s#BibDB);" % F1)
rng = random.Random(5)
atoms = "abcdef"
edges = ", ".join("'null':call Pair(\"%s\", \"%s\")" % (rng.choice(atoms), rng.choice(atoms))
                  for _ in range(9))
graph = "let set constant g = { %s } in %%s endlet;" % edges
show("set query " + graph % 'decorate (g, "a")')
show("set query " + graph % 'call Can ( decorate (g, "b") )')
system = random_closed_system(rng, max_names=8, max_labels=2, url="mem://h.xml",
                              acyclic=True)
ev.store.system.merge(system)
show("set query call Can(mem://h.xml#n0);")
"""


def test_can_and_decorate_output_identical_across_hash_seeds():
    root = Path(__file__).resolve().parent
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(root.parent / "src"), str(root)]))
        result = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count("Result = ") == 4
    assert outputs[0] == outputs[1]
