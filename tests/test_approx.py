import itertools
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hypersetdb.approx import (
    Fragment, approximation_url, generate_approximation_file, lower_approx,
    make_approx_reader, read_approx_file, simple_approx, upper_approx,
    write_approx_file,
)
from hypersetdb.bisim import naive_bisimulation
from hypersetdb.names import Element, EquationSystem, SetName
from hypersetdb.store import MemoryFetcher
from hypersetdb.xmlwdb import load_equations

from conftest import bibdb_f1_text, bibdb_f2_text, random_closed_system

F1 = "mem://BibDB-f1.xml"
F2 = "mem://BibDB-f2.xml"


def pair(a, b):
    return (a, b) if a.full <= b.full else (b, a)


@pytest.fixture
def bibdb_f1_fragment():
    system = load_equations(bibdb_f1_text(F1, F2), F1)
    return Fragment.from_system(system, F1)


def test_bibdb_f1_upper_approx_separates_all_roots(bibdb_f1_fragment):
    neg = upper_approx(bibdb_f1_fragment)
    roots = [SetName(F1, s) for s in ("BibDB", "b1", "b2")]
    root_pairs = {pair(x, y) for x, y in itertools.combinations(roots, 2)}
    assert root_pairs <= neg


def test_single_equation_fragment_has_empty_upper(bibdb_f1_fragment):
    system = EquationSystem()
    system.define(SetName(F1, "only"), [])
    fragment = Fragment.from_system(system, F1)
    assert upper_approx(fragment) == set()


def test_lower_approx_a_priori_rule():
    # a pair touching a foreign name with different names is a priori split,
    # while two local names defined identically over local content are equal
    system = EquationSystem()
    url = "mem://family1.xml"
    bob, alice, emma = (SetName(url, s) for s in ("bob", "alice", "emma"))
    system.define(bob, [Element("daughter", emma)])
    system.define(alice, [Element("daughter", emma)])
    system.define(emma, [Element("friend", SetName("mem://family2.xml", "mark"))])
    fragment = Fragment.from_system(system, url)
    neg = lower_approx(fragment)
    assert pair(bob, alice) not in neg          # globally bob = alice
    assert pair(bob, emma) in neg
    facts = simple_approx(fragment)
    assert facts.simple[pair(bob, alice)] is True

    # confirmed by the oracle on the closed two-file union
    closed = EquationSystem()
    closed.merge(system)
    closed.define(SetName("mem://family2.xml", "mark"), [])
    blocks = naive_bisimulation(closed)
    assert blocks[bob] == blocks[alice]


def test_bibdb_f1_simple_approx_has_three_negatives_no_positives(bibdb_f1_fragment):
    facts = simple_approx(bibdb_f1_fragment)
    decided = {k: v for k, v in facts.simple.items()}
    roots = [SetName(F1, s) for s in ("BibDB", "b1", "b2")]
    expected = {pair(x, y): False for x, y in itertools.combinations(roots, 2)}
    root_only = {k: v for k, v in decided.items()
                 if k[0] in roots and k[1] in roots}
    assert root_only == expected
    assert all(v is False for v in root_only.values())


def test_self_contained_fragment_is_fully_decided():
    url = "mem://chain.xml"
    system = EquationSystem()
    names = [SetName(url, "x%d" % i) for i in range(5)]
    for i, name in enumerate(names):
        elements = [Element("e", names[i + 1])] if i + 1 < len(names) else []
        system.define(name, elements)
    fragment = Fragment.from_system(system, url)
    facts = simple_approx(fragment)
    assert len(facts.simple) == len(list(itertools.combinations(names, 2)))
    # chain levels are pairwise distinct, matching the global relation
    blocks = naive_bisimulation(system)
    for (x, y), value in facts.simple.items():
        assert value == (blocks[x] == blocks[y])


def test_sandwich_property_on_random_closed_unions():
    rng = random.Random(11)
    for trial in range(30):
        local_url = "mem://local%d.xml" % trial
        foreign_url = "mem://foreign%d.xml" % trial
        # build a two-file system, then approximate from one file alone
        system = EquationSystem()
        locals_ = [SetName(local_url, "a%d" % i) for i in range(rng.randint(2, 6))]
        foreigns = [SetName(foreign_url, "b%d" % i) for i in range(rng.randint(1, 3))]
        everyone = locals_ + foreigns
        for name in everyone:
            degree = rng.randint(0, 3)
            system.define(name, [Element(rng.choice("lm"), rng.choice(everyone))
                                 for _ in range(degree)])
        fragment = Fragment.from_system(system, local_url)
        facts = simple_approx(fragment)
        blocks = naive_bisimulation(system)
        for (x, y), value in facts.simple.items():
            assert value == (blocks[x] == blocks[y]), \
                "unsound approximation in trial %d for %s ? %s" % (trial, x, y)


def random_two_file_fragment(rng, trial):
    """A fragment of random local equations over local and foreign names."""
    local_url = "mem://local%d.xml" % trial
    foreign_url = "mem://foreign%d.xml" % trial
    locals_ = [SetName(local_url, "a%d" % i) for i in range(rng.randint(1, 7))]
    foreigns = [SetName(foreign_url, "b%d" % i) for i in range(rng.randint(0, 3))]
    everyone = locals_ + foreigns
    system = EquationSystem()
    for name in locals_:
        system.define(name, [Element(rng.choice("lm"), rng.choice(everyone))
                             for _ in range(rng.randint(0, 3))])
    return Fragment.from_system(system, local_url), system


def test_lower_approx_is_exact_when_foreign_names_are_distinct():
    # Closing the fragment with F = {foreign:F : F} makes every foreign name
    # distinct from every other name, which is the lower approximation's a
    # priori rule; the pairs it leaves unrefuted are then exactly the
    # bisimilar ones, so a kernel that drops facts fails here.
    rng = random.Random(23)
    for trial in range(300):
        fragment, system = random_two_file_fragment(rng, trial)
        closed = system.copy()
        for name in system.referenced_names():
            if name not in closed:
                closed.define(name, [Element("foreign:" + name.full, name)])
        blocks = naive_bisimulation(closed)
        neg = lower_approx(fragment)
        unrefuted = {pair(x, y) for x, y in itertools.combinations(fragment.local, 2)
                     if pair(x, y) not in neg}
        bisimilar_pairs = {pair(x, y)
                           for x, y in itertools.combinations(fragment.local, 2)
                           if blocks[x] == blocks[y]}
        assert unrefuted == bisimilar_pairs, "trial %d" % trial


def test_upper_approx_complement_is_not_transitive():
    url = "mem://u.xml"
    a, b, c, d = (SetName(url, s) for s in "abcd")
    foreign = SetName("mem://other.xml", "X")
    system = EquationSystem()
    system.define(a, [Element("l", foreign)])
    system.define(b, [Element("l", c)])
    system.define(c, [])
    system.define(d, [Element("l", d)])
    neg = upper_approx(Fragment.from_system(system, url))
    # a stays unrefuted against b and d, yet b and d are refuted
    assert neg == {pair(a, c), pair(b, c), pair(b, d), pair(c, d)}


def test_approximations_restricted_are_equivalence_relations():
    rng = random.Random(5)
    for trial in range(20):
        url = "mem://eq%d.xml" % trial
        system = random_closed_system(rng, max_names=8, url=url)
        fragment = Fragment.from_system(system, url)
        local = set(fragment.local)
        for neg in (upper_approx(fragment), lower_approx(fragment)):
            positive = {pair(x, y) for x, y in itertools.combinations(local, 2)
                        if pair(x, y) not in neg}
            for a, b in positive:
                assert pair(b, a) in positive
            for a in local:
                for b in local:
                    for c in local:
                        if len({a, b, c}) < 3:
                            continue
                        if pair(a, b) in positive and pair(b, c) in positive:
                            assert pair(a, c) in positive


# -- approximation files --------------------------------------------------------

def test_file_name_convention():
    assert approximation_url("http://h/BibDB-f1.xml") == \
        "http://h/BibDB-f1.approximation.xml"


def test_written_file_matches_reference_structure(bibdb_f1_fragment):
    facts = simple_approx(bibdb_f1_fragment)
    text = write_approx_file(F1, bibdb_f1_fragment.local, facts.simple)
    root = ET.fromstring(text)
    assert root.tag == "simple-approximation"
    groups = {g.attrib["set_name"]: g for g in root}
    assert set(groups) == {SetName(F1, s).full for s in ("BibDB", "b1", "b2")}
    bib = groups[SetName(F1, "BibDB").full]
    listed = {(f.attrib["set_name"], f.attrib["value"]) for f in bib}
    assert listed == {(SetName(F1, "b1").full, "no"), (SetName(F1, "b2").full, "no")}
    b1 = groups[SetName(F1, "b1").full]
    assert {(f.attrib["set_name"], f.attrib["value"]) for f in b1} == \
        {(SetName(F1, "b2").full, "no")}
    b2 = groups[SetName(F1, "b2").full]
    assert list(b2) == []


def test_round_trip_read_write(bibdb_f1_fragment):
    facts = simple_approx(bibdb_f1_fragment)
    text = write_approx_file(F1, bibdb_f1_fragment.local, facts.simple)
    loaded = read_approx_file(text)
    assert {(pair(a, b)): v for a, b, v in loaded} == facts.simple


def test_unknown_pairs_are_absent():
    url = "mem://u.xml"
    a, b = SetName(url, "a"), SetName(url, "b")
    text = write_approx_file(url, [a, b], {})
    assert read_approx_file(text) == []


def test_namespaced_files_are_readable():
    text = """<sa:simple-approximation xmlns:sa="http://x/ns">
      <sa:facts set_name="mem://f.xml#a">
        <sa:fact set_name="mem://f.xml#b" value="yes"/>
      </sa:facts>
    </sa:simple-approximation>"""
    loaded = read_approx_file(text)
    assert loaded == [(SetName("mem://f.xml", "a"), SetName("mem://f.xml", "b"), True)]


def test_reader_is_silent_on_missing_files():
    reader = make_approx_reader(MemoryFetcher({}))
    assert reader("mem://nowhere.xml") == []


def test_reader_is_silent_on_fact_names_without_hash():
    text = """<simple-approximation>
      <facts set_name="mem://f.xml#a"><fact set_name="b" value="no"/></facts>
    </simple-approximation>"""
    reader = make_approx_reader(
        MemoryFetcher({approximation_url("mem://f.xml"): text}))
    assert reader("mem://f.xml") == []


HASH_SEED_SCRIPT = """
import random
from conftest import bibdb_f1_text, bibdb_f2_text
from hypersetdb.approx import generate_approximation_file
from hypersetdb.names import Element, EquationSystem, SetName
from hypersetdb.xmlwdb import load_equations

F1, F2 = "mem://BibDB-f1.xml", "mem://BibDB-f2.xml"
print(generate_approximation_file(F1, load_equations(bibdb_f1_text(F1, F2), F1)))
print(generate_approximation_file(F2, load_equations(bibdb_f2_text(F1, F2), F2)))
rng = random.Random(2)
local = [SetName("mem://r.xml", "a%d" % i) for i in range(12)]
everyone = local + [SetName("mem://s.xml", "b%d" % i) for i in range(3)]
system = EquationSystem()
for name in local:
    system.define(name, [Element(rng.choice("lm"), rng.choice(everyone))
                         for _ in range(rng.randint(0, 3))])
print(generate_approximation_file("mem://r.xml", system))
"""


def test_approximation_files_identical_across_hash_seeds():
    root = Path(__file__).resolve().parent
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(root.parent / "src"), str(root)]))
        result = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count("<simple-approximation") == 3
    assert 'value="yes"' in outputs[0] and 'value="no"' in outputs[0]
    assert outputs[0] == outputs[1]


def test_generate_approximation_file_computes_no_fetches():
    fetcher = MemoryFetcher({F1: bibdb_f1_text(F1, F2)})
    system = load_equations(fetcher(F1), F1)
    fetched_before = fetcher.fetch_count
    generate_approximation_file(F1, system)
    assert fetcher.fetch_count == fetched_before  # strictly local computation
