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
from .names import Element, EquationSystem, SetName
from .store import LatencyFetcher, MemoryFetcher, SessionStore
from .xmlwdb import from_equations, load_equations


@dataclass
class Scenario:
    documents: Dict[str, str]
    roots: List[str]
    question: Tuple[SetName, SetName]


def _chain(names: List[SetName], last: List[SetName]) -> List[Tuple[SetName, List[SetName]]]:
    """Each name's successors: the next name, and `last` for the last one."""
    return [(name, [succ]) for name, succ in zip(names, names[1:])] + [(names[-1], last)]


def _documents(urls: List[str], equations: List[Tuple[SetName, List[SetName]]]
               ) -> Dict[str, str]:
    """One XML-WDB document per URL, defining each name as {e:successor, ...}."""
    systems = {url: EquationSystem() for url in urls}
    for name, successors in equations:
        systems[name.url].define(name, [Element("e", succ) for succ in successors])
    return {url: from_equations(system, url) for url, system in systems.items()}


def _chain_documents(base: str, files: int, names: int,
                     cyclic: bool) -> Tuple[Dict[str, str], List[str]]:
    """One chain x1 -> x2 -> ... -> xN split contiguously over the given
    number of files; the last node is empty (straight) or points back to the
    first (cyclic)."""
    per_file = [names // files + (1 if i < names % files else 0)
                for i in range(files)]
    urls = ["%s/chain-%d.xml" % (base, i) for i in range(files)]
    owners = [url for url, count in zip(urls, per_file) for _ in range(count)]
    chain = [SetName(url, "x%d" % index) for index, url in enumerate(owners, 1)]
    return _documents(urls, _chain(chain, chain[:1] if cyclic else [])), urls


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
        main = [SetName(main_url, "m%d" % i) for i in range(1, names - 2 * (names // 3) + 1)]
        aux1, aux2 = ([SetName(url, "%s%d" % (prefix, i)) for i in range(1, names // 3 + 1)]
                      for url, prefix in ((aux1_url, "a"), (aux2_url, "b")))
        equations = _chain(main, [aux1[0], aux2[0]]) + _chain(aux1, []) + _chain(aux2, [])
        return _documents([main_url, aux1_url, aux2_url], equations), main_url

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
