"""Benchmark scenarios for the bisimulation engine.

Each scenario builds a small WDB plus an isomorphic copy (same simple names,
different URL part) served from memory with simulated per-document fetch
latency, and times the test question x ? x' under one of three strategies:
resolving locally (no_engine), polling a background engine, or polling an
engine that also exploits approximation files.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .approx import generate_approximation_file, approximation_url
from .bisim import BisimHelpers, FactStore, OracleValue, bisimilar
from .engine import BisimulationEngine, OracleClient, serve
from .names import SetName
from .store import LatencyFetcher, MemoryFetcher, SessionStore
from .xmlwdb import load_equations


@dataclass
class Scenario:
    documents: Dict[str, str]
    roots: List[str]
    question: Tuple[SetName, SetName]


def _wdb_file(url: str, equations: List[Tuple[str, List[Tuple[str, str]]]]) -> str:
    """Render simple equations [(name, [(label, target)])] where target is a
    simple name (same file) or a full name containing '#'."""
    lines = ['<?xml version="1.0"?>',
             '<set:eqns xmlns:set="http://www.csc.liv.ac.uk/~molyneux/XML-WDB">']
    for name, elements in equations:
        lines.append('  <set:eqn set:id="%s">' % name)
        for label, target in elements:
            if "#" in target:
                lines.append('    <%s set:href="%s"/>' % (label, target))
            else:
                lines.append('    <%s set:ref="%s"/>' % (label, target))
        lines.append('  </set:eqn>')
    lines.append('</set:eqns>')
    return "\n".join(lines)


def _chain_documents(base: str, files: int, names: int,
                     cyclic: bool) -> Tuple[Dict[str, str], List[str]]:
    """One chain x1 -> x2 -> ... -> xN split contiguously over the given
    number of files; the last node is empty (straight) or points back to the
    first (cyclic)."""
    per_file = [names // files + (1 if i < names % files else 0)
                for i in range(files)]
    urls = ["%s/chain-%d.xml" % (base, i) for i in range(files)]
    owner: Dict[int, str] = {}
    index = 1
    for url, count in zip(urls, per_file):
        for _ in range(count):
            owner[index] = url
            index += 1
    documents: Dict[str, str] = {}
    index = 1
    for url, count in zip(urls, per_file):
        equations = []
        for _ in range(count):
            name = "x%d" % index
            succ = index + 1
            if succ > names:
                elements = [("e", "%s#x1" % owner[1])] if cyclic else []
            elif owner[succ] == url:
                elements = [("e", "x%d" % succ)]
            else:
                elements = [("e", "%s#x%d" % (owner[succ], succ))]
            equations.append((name, elements))
            index += 1
        documents[url] = _wdb_file(url, equations)
    return documents, urls


def build_chains(files: int = 10, names: int = 51) -> Scenario:
    """Straight chains split over many files, plus the isomorphic copy."""
    docs_a, urls_a = _chain_documents("mem://wdbA", files, names, cyclic=False)
    docs_b, urls_b = _chain_documents("mem://wdbB", files, names, cyclic=False)
    documents = {**docs_a, **docs_b}
    question = (SetName(urls_a[0], "x1"), SetName(urls_b[0], "x1"))
    return Scenario(documents, urls_a + urls_b, question)


def build_self_contained(names: int = 25) -> Scenario:
    """One self-contained cyclic chain per file (no external links), plus the
    copy; approximation files fully decide every within-file pair."""
    docs_a, urls_a = _chain_documents("mem://selfA", 1, names, cyclic=True)
    docs_b, urls_b = _chain_documents("mem://selfB", 1, names, cyclic=True)
    documents = {**docs_a, **docs_b}
    for url in urls_a + urls_b:
        system = load_equations(documents[url], url)
        documents[approximation_url(url)] = generate_approximation_file(url, system)
    question = (SetName(urls_a[0], "x1"), SetName(urls_b[0], "x1"))
    return Scenario(documents, urls_a + urls_b, question)


def build_three_file(names: int = 61) -> Scenario:
    """A main chain file hyperlinked to two auxiliary chain files, plus the
    copy; straight chains ending in the empty set."""

    def half(base: str) -> Tuple[Dict[str, str], str]:
        main_url = "%s/main.xml" % base
        aux1_url = "%s/aux1.xml" % base
        aux2_url = "%s/aux2.xml" % base
        main_count = names - 2 * (names // 3)
        aux_count = names // 3
        docs: Dict[str, str] = {}
        main_eqns = []
        for i in range(1, main_count + 1):
            elements = []
            if i < main_count:
                elements.append(("e", "m%d" % (i + 1)))
            else:
                elements.append(("e", "%s#a1" % aux1_url))
                elements.append(("e", "%s#b1" % aux2_url))
            main_eqns.append(("m%d" % i, elements))
        docs[main_url] = _wdb_file(main_url, main_eqns)
        for url, prefix in ((aux1_url, "a"), (aux2_url, "b")):
            eqns = []
            for i in range(1, aux_count + 1):
                elements = [("e", "%s%d" % (prefix, i + 1))] if i < aux_count else []
                eqns.append(("%s%d" % (prefix, i), elements))
            docs[url] = _wdb_file(url, eqns)
        return docs, main_url

    docs_a, main_a = half("mem://threeA")
    docs_b, main_b = half("mem://threeB")
    documents = {**docs_a, **docs_b}
    question = (SetName(main_a, "m1"), SetName(main_b, "m1"))
    return Scenario(documents, [main_a, main_b], question)


@dataclass
class Measurements:
    strategy: str
    delay_ms: float
    wall_ms: float
    answer: bool
    client_fetches: int = 0
    engine_fetches: int = 0
    engine_productive_rounds: int = 0
    questions_resolved: int = 0


def _questions_resolved(store: SessionStore, facts: FactStore) -> int:
    """The pairs of the store's names that the facts decide."""
    names = sorted(store.system.equations)
    return sum(facts.decided(x, y) is not None
               for x, y in itertools.combinations(names, 2))


def run_experiment(scenario: Scenario, strategy: str, delay_ms: float = 0.0,
                   fetch_latency_ms: float = 25.0) -> Measurements:
    """Execute the scenario question under one strategy.

    The client always runs the lazy resolution algorithm itself; the engine
    strategies additionally consult the ASK service once per question (after
    giving the engine a head start of delay_ms, excluded from the wall time).
    With no head start the engine starts on the first ASK the service
    receives, once the client's query has begun, so it knows nothing when
    the client starts asking.
    """
    x, y = scenario.question
    if strategy == "no_engine":
        fetcher = LatencyFetcher(MemoryFetcher(scenario.documents), fetch_latency_ms)
        store = SessionStore(fetcher)
        facts = FactStore()
        started = time.perf_counter()
        answer = bisimilar(x, y, store, facts)
        wall = (time.perf_counter() - started) * 1000.0
        return Measurements(strategy, delay_ms, wall, answer,
                            client_fetches=fetcher.fetch_count,
                            questions_resolved=_questions_resolved(store, facts))

    if strategy not in ("engine", "engine_with_approx"):
        raise ValueError("unknown strategy %r" % strategy)
    engine_fetcher = LatencyFetcher(MemoryFetcher(scenario.documents),
                                    fetch_latency_ms)
    engine = BisimulationEngine(scenario.roots, engine_fetcher,
                                use_approximations=(strategy == "engine_with_approx"))
    start_once = threading.Lock()

    def start_engine() -> None:
        if start_once.acquire(blocking=False):
            engine.start()

    def started_answer(a: SetName, b: SetName) -> OracleValue:
        start_engine()
        return engine.answer(a, b)

    server = serve(started_answer)
    host, port = server.server_address
    client = OracleClient(host, port)
    try:
        if delay_ms > 0:
            start_engine()
            time.sleep(delay_ms / 1000.0)
        client_fetcher = LatencyFetcher(MemoryFetcher(scenario.documents),
                                        fetch_latency_ms)
        store = SessionStore(client_fetcher)
        facts = FactStore()
        helpers = BisimHelpers(oracle=client)
        started = time.perf_counter()
        answer = bisimilar(x, y, store, facts, helpers)
        wall = (time.perf_counter() - started) * 1000.0
        start_engine()
        engine.join()
        return Measurements(strategy, delay_ms, wall, answer,
                            client_fetches=client_fetcher.fetch_count,
                            engine_fetches=engine.documents_fetched,
                            engine_productive_rounds=engine.productive_rounds,
                            questions_resolved=_questions_resolved(store, facts))
    finally:
        client.close()
        server.shutdown()
        server.server_close()
