"""Shared fixtures: the bibliographic example WDB (two cross-linked files),
helpers for building random closed systems and a check of the fetch
threads."""

from __future__ import annotations

import random
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from hypersetdb.names import Element, EquationSystem, SetName
from hypersetdb.store import MAX_FETCHES_IN_FLIGHT


def bibdb_f1_text(f1_url: str, f2_url: str) -> str:
    return f"""<?xml version="1.0"?>
<set:eqns
 xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
 xsi:noNamespaceSchemaLocation="http://www.csc.liv.ac.uk/~molyneux/XML-WDB/schema/xml-wdb.xsd"
 xmlns:set="http://www.csc.liv.ac.uk/~molyneux/XML-WDB">

  <set:eqn set:id="BibDB">
    <paper set:href="{f2_url}#p1"/>
    <paper set:href="{f2_url}#p2"/>
    <paper set:href="{f2_url}#p3"/>
    <book set:ref="b1"/>
    <book set:ref="b2"/>
  </set:eqn>

  <set:eqn set:id="b1">
    <refers-to set:ref="b2"/>
    <refers-to set:href="{f2_url}#p1"/>
  </set:eqn>

  <set:eqn set:id="b2">
    <author>Jones</author>
    <title>Databases</title>
  </set:eqn>

</set:eqns>
"""


def bibdb_f2_text(f1_url: str, f2_url: str) -> str:
    return f"""<?xml version="1.0"?>
<set:eqns
 xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
 xsi:noNamespaceSchemaLocation="http://www.csc.liv.ac.uk/~molyneux/XML-WDB/schema/xml-wdb.xsd"
 xmlns:set="http://www.csc.liv.ac.uk/~molyneux/XML-WDB">

  <set:eqn set:id="p1">
    <refers-to set:ref="p2"/>
  </set:eqn>

  <set:eqn set:id="p2">
    <author>Smith</author>
    <title>Databases</title>
    <refers-to set:ref="p3"/>
  </set:eqn>

  <set:eqn set:id="p3">
    <author>Jones</author>
    <title>Databases</title>
  </set:eqn>

</set:eqns>
"""


class BibDb:
    """The two bibliography files served over file:// URLs."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.f1_url = directory.joinpath("BibDB-f1.xml").as_uri()
        self.f2_url = directory.joinpath("BibDB-f2.xml").as_uri()
        directory.joinpath("BibDB-f1.xml").write_text(
            bibdb_f1_text(self.f1_url, self.f2_url), encoding="utf-8")
        directory.joinpath("BibDB-f2.xml").write_text(
            bibdb_f2_text(self.f1_url, self.f2_url), encoding="utf-8")

    def name(self, simple: str) -> SetName:
        url = self.f1_url if simple in ("BibDB", "b1", "b2") else self.f2_url
        return SetName(url, simple)


@pytest.fixture(scope="session")
def bibdb(tmp_path_factory) -> BibDb:
    return BibDb(tmp_path_factory.mktemp("bibdb"))


def check_fetch_threads(batch: Callable[[Callable], object], times: int = 200) -> None:
    """The thread contract of `store.fetch_concurrently`, checked over two
    runs of `times` calls of batch(wrap), each of which runs one fetch batch
    whose calls it first passes through wrap: no call is still running when
    its batch returns, the live threads never exceed those at the start plus
    MAX_FETCHES_IN_FLIGHT - 1, and the second run starts no thread."""
    before = threading.active_count()
    lock = threading.Lock()
    running = {"calls": 0, "peak_threads": before, "threads": set()}

    def wrap(call: Callable) -> Callable:
        def recorded(*args):
            with lock:
                running["calls"] += 1
                running["peak_threads"] = max(running["peak_threads"], threading.active_count())
                running["threads"].add(threading.current_thread())
            try:
                time.sleep(0.0001)      # a worker still in its call when the batch returns shows
                return call(*args)
            finally:
                with lock:
                    running["calls"] -= 1
        return recorded

    def run() -> None:
        for _ in range(times):
            batch(wrap)
            assert running["calls"] == 0
            running["peak_threads"] = max(running["peak_threads"], threading.active_count())

    run()
    assert running["peak_threads"] <= before + MAX_FETCHES_IN_FLIGHT - 1
    alive = set(threading.enumerate())
    running["threads"].clear()
    run()
    assert set(threading.enumerate()) <= alive
    assert running["threads"] <= alive


def random_closed_system(rng: random.Random, max_names: int = 25,
                         max_labels: int = 4, url: str = "mem://rand.xml",
                         acyclic: bool = False) -> EquationSystem:
    """A random closed equation system: arbitrary labelled edges, cycles
    allowed unless `acyclic`, which points every edge to a later name."""
    count = rng.randint(1, max_names)
    names = [SetName(url, "n%d" % i) for i in range(count)]
    labels = ["l%d" % i for i in range(rng.randint(1, max_labels))]
    system = EquationSystem()
    for index, name in enumerate(names):
        pool = names[index + 1:] if acyclic else names
        degree = rng.randint(0, min(4, len(pool)))
        elements = [Element(rng.choice(labels), rng.choice(pool))
                    for _ in range(degree)]
        system.define(name, elements)
    return system


def duplicate_and_shuffle(system: EquationSystem, rng: random.Random,
                          url: str = "mem://rand2.xml"
                          ) -> Tuple[EquationSystem, Dict[SetName, SetName]]:
    """A system presenting the same hypersets differently: every name is
    renamed, element lists are shuffled and duplicated, and some names gain
    bisimilar duplicate definitions."""
    mapping = {n: SetName(url, n.simple + "-r") for n in system.equations}
    duplicated = [n for n in system.equations if rng.random() < 0.4]
    clones = {n: SetName(url, n.simple + "-clone") for n in duplicated}
    out = EquationSystem()

    def rewrite(elements: List[Element]) -> List[Element]:
        rewritten = []
        for el in elements:
            target = mapping[el.member]
            if el.member in clones and rng.random() < 0.5:
                target = clones[el.member]
            rewritten.append(Element(el.label, target))
        extra = [rng.choice(rewritten) for _ in rewritten if rng.random() < 0.3]
        combined = rewritten + extra
        rng.shuffle(combined)
        return combined

    for name, elements in system.equations.items():
        out.define(mapping[name], rewrite(elements))
    for name in duplicated:
        out.define(clones[name], rewrite(system.equations[name]))
    return out, mapping


def split_documents(system: EquationSystem, rng: random.Random, parts: int,
                    base: str = "mem://part"
                    ) -> Tuple[Dict[str, str], Dict[SetName, SetName]]:
    """The system's equations spread over XML-WDB documents: each name moves
    to a randomly chosen one of `parts` documents, and references across
    documents become hyperlinks.  Returns the documents by URL (empty ones
    left out) and each original name's new name."""
    from hypersetdb.xmlwdb import from_equations

    urls = ["%s%d.xml" % (base, i) for i in range(parts)]
    home = {n: SetName(rng.choice(urls), n.simple) for n in system.equations}
    per_url = {url: EquationSystem() for url in urls}
    for name, elements in system.equations.items():
        per_url[home[name].url].define(
            home[name], [Element(el.label, home[el.member]) for el in elements])
    documents = {url: from_equations(part, url)
                 for url, part in per_url.items() if part.equations}
    return documents, home


# -- acceptance reporting ------------------------------------------------------

import re as _re

_CRITERION_RE = _re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            number = int(match.group(1))
            ok = status == "passed"
            outcomes[number] = outcomes.get(number, True) and ok
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(outcomes):
        verdict = "PASS" if outcomes[number] else "FAIL"
        terminalreporter.write_line("ACCEPTANCE CRITERION %2d: %s" % (number, verdict))
