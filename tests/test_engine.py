import itertools
import os
import random
import re
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from hypersetdb.bisim import (
    BisimHelpers, BisimulationError, FactStore, OracleValue, bisimilar,
    naive_bisimulation,
)
from hypersetdb import bisim as bisim_module
from hypersetdb import engine as engine_module
from hypersetdb import experiments
from hypersetdb.approx import write_facts
from hypersetdb.engine import (
    RECONNECT_BACKOFF_S, BisimulationEngine, OracleClient, TrivialOracle,
    generate_trivial_oracle_xml, serve,
)
from hypersetdb.names import (Element, EquationSystem, SetName, UndefinedNameError,
                              WdbError, parse_full_name)
from hypersetdb.store import FetchError, LatencyFetcher, MemoryFetcher, SessionStore
from hypersetdb.xmlwdb import load_equations

from conftest import (BibDb, bibdb_f1_text, bibdb_f2_text, duplicate_and_shuffle,
                      random_closed_system, split_documents)
from test_bisim import foreign_fact_documents, with_approximation_files

F1 = "mem://BibDB-f1.xml"
F2 = "mem://BibDB-f2.xml"


def bibdb_documents():
    return {F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2)}


def closed_bibdb() -> EquationSystem:
    system = EquationSystem()
    system.merge(load_equations(bibdb_f1_text(F1, F2), F1))
    system.merge(load_equations(bibdb_f2_text(F1, F2), F2))
    return system


# ---------------------------------------------------------------------------
# Trivial oracle
# ---------------------------------------------------------------------------

def test_generated_trivial_oracle_matches_reference():
    xml = generate_trivial_oracle_xml(closed_bibdb())
    oracle = TrivialOracle.from_xml(xml)
    roots = [SetName(F1, s) for s in ("BibDB", "b1", "b2")] + \
        [SetName(F2, s) for s in ("p1", "p2", "p3")]
    values = {}
    for x, y in itertools.combinations(roots, 2):
        values[(x.simple, y.simple)] = oracle.answer(x, y)
    assert values[("b2", "p3")] is OracleValue.YES
    negatives = [v for k, v in values.items() if k != ("b2", "p3")]
    assert len(negatives) == 14
    assert all(v is OracleValue.NO for v in negatives)


def test_generated_trivial_oracle_equals_the_brute_force_file():
    # the production kernel and the brute-force oracle write the same bytes
    rng = random.Random(29)
    systems = [closed_bibdb()]
    for _ in range(20):
        system = random_closed_system(rng, max_names=10, max_labels=2)
        twin, _ = duplicate_and_shuffle(system, rng)
        system.merge(twin)
        systems.append(system)
    for system in systems:
        blocks = naive_bisimulation(system)
        expected = write_facts("oracle", list(system.equations),
                               lambda x, y: blocks[x] == blocks[y], delay="0")
        assert generate_trivial_oracle_xml(system) == expected
    assert 'delay="0"' in expected and 'value="yes"' in expected


def test_generated_trivial_oracle_refuses_an_open_system():
    system = EquationSystem()
    system.define(SetName(F1, "a"), [Element("l", SetName(F2, "b"))])
    with pytest.raises(BisimulationError, match="mem://BibDB-f2.xml#b is foreign"):
        generate_trivial_oracle_xml(system)


def test_trivial_oracle_reflexive_and_unknown():
    oracle = TrivialOracle.from_xml("<oracle></oracle>")
    a, b = SetName(F1, "a"), SetName(F1, "b")
    assert oracle.answer(a, a) is OracleValue.YES
    assert oracle.answer(a, b) is OracleValue.UNKNOWN


def test_trivial_oracle_delay_upgrades_answer():
    xml = """<oracle>
      <facts set_name="mem://f.xml#x">
        <fact set_name="mem://f.xml#y" value="no" delay="120"/>
      </facts>
    </oracle>"""
    oracle = TrivialOracle.from_xml(xml)
    x, y = SetName("mem://f.xml", "x"), SetName("mem://f.xml", "y")
    assert oracle.answer(x, y) is OracleValue.UNKNOWN
    time.sleep(0.15)
    assert oracle.answer(x, y) is OracleValue.NO


@pytest.mark.parametrize("text", [
    "<oracle><facts",
    "<simple-approximation/>",
    '<oracle><facts set_name="x"><fact set_name="mem://f.xml#y" value="no"/></facts></oracle>',
    '<oracle><facts set_name="mem://f.xml#x"><fact set_name="mem://f.xml#y"/></facts></oracle>',
    '<oracle><facts set_name="mem://f.xml#x">'
    '<fact set_name="mem://f.xml#y" value="no" delay="soon"/></facts></oracle>',
    '<oracle><facts set_name="mem://f.xml#x">'
    '<fact set_name="mem://f.xml#y" value="no" delay="nan"/></facts></oracle>',
    '<oracle><facts set_name="mem://f.xml#x">'
    '<fact set_name="mem://f.xml#y" value="no" delay="-5"/></facts></oracle>',
])
def test_malformed_trivial_oracle_file_raises(text):
    with pytest.raises(WdbError):
        TrivialOracle.from_xml(text)


def test_namespaced_trivial_oracle_file_is_readable():
    oracle = TrivialOracle.from_xml("""<o:oracle xmlns:o="http://x/ns">
      <o:facts set_name="mem://f.xml#x">
        <o:fact set_name="mem://f.xml#y" value="yes" delay="0"/>
      </o:facts>
    </o:oracle>""")
    x, y = SetName("mem://f.xml", "x"), SetName("mem://f.xml", "y")
    assert oracle.answer(x, y) is OracleValue.YES


def test_trivial_oracle_zero_delay_answers_immediately():
    xml = generate_trivial_oracle_xml(closed_bibdb())
    oracle = TrivialOracle.from_xml(xml)
    assert oracle.answer(SetName(F1, "b2"), SetName(F2, "p3")) is OracleValue.YES


# ---------------------------------------------------------------------------
# Background engine
# ---------------------------------------------------------------------------

def test_engine_saturates_bibdb():
    engine = BisimulationEngine([F1], MemoryFetcher(bibdb_documents()))
    engine.start()
    engine.join(timeout=30)
    assert engine.complete.is_set()
    roots = [SetName(F1, s) for s in ("BibDB", "b1", "b2")] + \
        [SetName(F2, s) for s in ("p1", "p2", "p3")]
    decided = [engine.answer(x, y) for x, y in itertools.combinations(roots, 2)]
    assert all(v is not OracleValue.UNKNOWN for v in decided)
    assert decided.count(OracleValue.YES) == 1


def test_engine_answers_match_naive_oracle():
    engine = BisimulationEngine([F1], MemoryFetcher(bibdb_documents()))
    engine.start()
    engine.join(timeout=30)
    blocks = naive_bisimulation(closed_bibdb())
    names = list(closed_bibdb().equations)
    for x, y in itertools.combinations(names, 2):
        expected = OracleValue.YES if blocks[x] == blocks[y] else OracleValue.NO
        assert engine.answer(x, y) is expected


def test_engine_reads_each_approximation_file_once():
    from hypersetdb.approx import approximation_url, generate_approximation_file
    documents = bibdb_documents()
    for url in (F1, F2):
        documents[approximation_url(url)] = generate_approximation_file(
            url, load_equations(documents[url], url))
    fetcher = MemoryFetcher(documents)
    engine = BisimulationEngine([F1], fetcher, use_approximations=True)
    engine.start()
    engine.join(timeout=30)
    read = [url for url in fetcher.fetched if url.endswith(".approximation.xml")]
    assert sorted(read) == [approximation_url(F1), approximation_url(F2)]
    blocks = naive_bisimulation(closed_bibdb())
    for x, y in itertools.combinations(closed_bibdb().equations, 2):
        expected = OracleValue.YES if blocks[x] == blocks[y] else OracleValue.NO
        assert engine.answer(x, y) is expected


def test_engine_whose_fetcher_fails_completes_and_join_raises():
    fetcher = MemoryFetcher({F1: bibdb_documents()[F1]})   # F2 cannot be fetched
    engine = BisimulationEngine([F1], fetcher)
    engine.start()
    assert engine.complete.wait(30)
    with pytest.raises(FetchError, match="BibDB-f2"):
        engine.join(timeout=30)
    assert not engine._thread.is_alive()


def test_engine_monotone_unknown_then_decided():
    # slow fetches keep the engine busy; early answers must be UNKNOWN
    from hypersetdb.store import LatencyFetcher
    fetcher = LatencyFetcher(MemoryFetcher(bibdb_documents()), 150.0)
    engine = BisimulationEngine([F1], fetcher)
    x, y = SetName(F1, "b2"), SetName(F2, "p3")
    assert engine.answer(x, y) is OracleValue.UNKNOWN
    engine.start()
    assert engine.answer(x, y) is OracleValue.UNKNOWN
    engine.join(timeout=30)
    assert engine.answer(x, y) is OracleValue.YES


def engine_answers_agree(engine, system, home, blocks):
    """Every pair of loaded names is answered as the partition says; a pair
    with a name the engine never loaded reads Unknown or the truth."""
    loaded = engine.store.system.equations
    for x, y in itertools.combinations(system.equations, 2):
        value = engine.answer(home[x], home[y])
        expected = OracleValue.YES if blocks[x] == blocks[y] else OracleValue.NO
        if home[x] in loaded and home[y] in loaded:
            assert value is expected, (x.full, y.full)
        else:
            assert value in (expected, OracleValue.UNKNOWN), (x.full, y.full)


def test_engine_answers_match_naive_on_split_systems():
    """Random systems split over 2-4 linked documents, with and without
    approximation files, from every root or from one."""
    rng = random.Random(5)
    for trial in range(80):
        system = random_closed_system(rng, max_names=16, max_labels=3)
        blocks = naive_bisimulation(system)
        documents, home = split_documents(system, rng, rng.randint(2, 4))
        approximations = trial % 2 == 1
        if approximations:
            documents = with_approximation_files(documents)
        urls = sorted({name.url for name in home.values()})
        roots = urls if trial % 4 < 2 else [rng.choice(urls)]
        engine = BisimulationEngine(roots, MemoryFetcher(documents),
                                    use_approximations=approximations)
        engine.start()
        engine.join(timeout=30)
        if trial % 4 < 2:
            assert len(engine.store.system.equations) == len(system.equations)
        engine_answers_agree(engine, system, home, blocks)


def test_engine_answers_never_change_once_decided():
    """A second thread polls every pair while the engine loads over slow
    fetches: an answer, once Yes or No, is right and stays."""
    rng = random.Random(9)
    for trial in range(6):
        # a system with a shuffled copy of itself has many equal pairs
        system = random_closed_system(rng, max_names=10, max_labels=2)
        system.merge(duplicate_and_shuffle(system, rng)[0])
        blocks = naive_bisimulation(system)
        documents, home = split_documents(system, rng, 4)
        if trial % 2:
            documents = with_approximation_files(documents)
        root = sorted({name.url for name in home.values()})[0]
        fetcher = LatencyFetcher(MemoryFetcher(documents), 20.0)
        engine = BisimulationEngine([root], fetcher, use_approximations=trial % 2 == 1)
        pairs = list(itertools.combinations(system.equations, 2))
        first, changed = {}, []
        polls = 0

        def poll():
            nonlocal polls
            while not engine.complete.is_set():
                polls += 1
                for x, y in pairs:
                    value = engine.answer(home[x], home[y])
                    if value is not OracleValue.UNKNOWN and \
                            first.setdefault((x, y), value) is not value:
                        changed.append((x.full, y.full))

        poller = threading.Thread(target=poll)
        engine.start()
        poller.start()
        poller.join(timeout=30)
        engine.join(timeout=30)
        assert polls > 1
        assert not changed, changed
        for (x, y), value in first.items():
            assert value is engine.answer(home[x], home[y])
            assert (value is OracleValue.YES) == (blocks[x] == blocks[y])
        engine_answers_agree(engine, system, home, blocks)


def test_engine_with_a_contradicting_approximation_file_fails():
    """An approximation file claiming b1 = BibDB: join raises once both
    names are loaded."""
    from hypersetdb.approx import approximation_url, generate_approximation_file
    documents = bibdb_documents()
    text = generate_approximation_file(F1, load_equations(documents[F1], F1))
    assert text.count('value="no"') == 3
    documents[approximation_url(F1)] = text.replace('value="no"', 'value="yes"', 1)
    engine = BisimulationEngine([F1], MemoryFetcher(documents), use_approximations=True)
    engine.start()
    assert engine.complete.wait(30)
    with pytest.raises(BisimulationError, match="contradicts"):
        engine.join(timeout=30)


def test_engine_ignores_approximation_facts_about_another_documents_names():
    engine = BisimulationEngine(["mem://a.xml"], MemoryFetcher(foreign_fact_documents()),
                                use_approximations=True)
    engine.start()
    engine.join(timeout=30)
    assert engine.complete.is_set()
    assert engine.answer(SetName("mem://a.xml", "r"),
                         SetName("mem://a.xml", "s")) is OracleValue.NO


def test_engine_decides_without_bisimilar(monkeypatch):
    def refuse(*args):
        raise AssertionError("bisimilar called")
    monkeypatch.setattr(engine_module, "bisimilar", refuse)
    monkeypatch.setattr(bisim_module, "bisimilar", refuse)
    engine = BisimulationEngine([F1], MemoryFetcher(bibdb_documents()))
    engine.start()
    engine.join(timeout=30)
    assert engine.answer(SetName(F1, "b2"), SetName(F2, "p3")) is OracleValue.YES
    assert engine.productive_rounds == 0


def test_engine_with_a_dangling_href_fails():
    documents = bibdb_documents()
    documents[F1] = documents[F1].replace(F2 + "#p2", F2 + "#p9")   # F2 has no p9
    engine = BisimulationEngine([F1], MemoryFetcher(documents))
    engine.start()
    assert engine.complete.wait(30)
    with pytest.raises(UndefinedNameError, match="BibDB-f2.xml#p9"):
        engine.join(timeout=30)


# ---------------------------------------------------------------------------
# The ASK protocol
# ---------------------------------------------------------------------------

def test_ask_protocol_round_trip():
    engine = BisimulationEngine([F1], MemoryFetcher(bibdb_documents()))
    engine.start()
    engine.join(timeout=30)
    server = serve(engine.answer)
    host, port = server.server_address
    client = OracleClient(host, port)
    try:
        assert client.ask(SetName(F1, "b2"), SetName(F2, "p3")) is OracleValue.YES
        assert client.ask(SetName(F1, "b1"), SetName(F2, "p1")) is OracleValue.NO
        assert client.ask(SetName(F1, "b1"), SetName(F1, "b1")) is OracleValue.YES
        assert client.ask(SetName("mem://other.xml", "q"),
                          SetName(F1, "b1")) is OracleValue.UNKNOWN
    finally:
        client.close()
        server.shutdown()
        server.server_close()


def test_run_engine_script_serves_the_bibdb(tmp_path):
    """scripts/run_engine.py in background mode over file:// BibDB: an ASK
    while it derives reads Unknown or the truth, and every ASK after
    `background derivation complete` the truth."""
    bib = BibDb(tmp_path)
    system = EquationSystem()
    for url, file in ((bib.f1_url, "BibDB-f1.xml"), (bib.f2_url, "BibDB-f2.xml")):
        system.merge(load_equations(bib.directory.joinpath(file).read_text("utf-8"), url))
    blocks = naive_bisimulation(system)

    def expected(x, y):
        return OracleValue.YES if blocks[x] == blocks[y] else OracleValue.NO

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    process = subprocess.Popen(
        [sys.executable, str(root / "scripts" / "run_engine.py"), "--port", "0",
         "--no-network", bib.f1_url],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(60.0, process.kill)
    watchdog.start()
    client = None
    try:
        match = re.fullmatch(r"serving ASK protocol on (\S+):(\d+)\n",
                             process.stdout.readline())
        assert match, process.stderr.read()
        client = OracleClient(match.group(1), int(match.group(2)))
        x, y = bib.name("b2"), bib.name("p3")
        assert client.ask(x, y) in (expected(x, y), OracleValue.UNKNOWN)
        assert process.stdout.readline() == "background derivation complete\n"
        for a, b in itertools.combinations(sorted(system.equations), 2):
            assert client.ask(a, b) is expected(a, b), (a.full, b.full)
    finally:
        if client is not None:
            client.close()
        process.terminate()
        process.wait(timeout=30)
        watchdog.cancel()
        process.stdout.close()
        process.stderr.close()


def test_ask_with_malformed_name_gets_error_and_service_continues():
    server = serve(lambda x, y: OracleValue.NO)
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            for request in (b"ASK nohash mem://f.xml#y\n", b"ASK #x mem://f.xml#y\n",
                            b"ASK mem://f.xml# mem://f.xml#y\n"):
                stream.write(request)
                stream.flush()
                assert stream.readline() == b"ERROR malformed set name\n"
            stream.write(b"ASK mem://f.xml#x mem://f.xml#y\n")
            stream.flush()
            assert stream.readline() == b"NO mem://f.xml#x mem://f.xml#y\n"
    finally:
        server.shutdown()
        server.server_close()


def test_ask_that_is_not_utf8_gets_error_and_service_continues():
    server = serve(lambda x, y: OracleValue.NO)
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"ASK mem://f.xml#\xff\xfe mem://f.xml#y\n")
            stream.flush()
            assert stream.readline() == b"ERROR malformed request\n"
            stream.write(b"ASK mem://f.xml#x mem://f.xml#y\n")
            stream.flush()
            assert stream.readline() == b"NO mem://f.xml#x mem://f.xml#y\n"
    finally:
        server.shutdown()
        server.server_close()


def test_pipelined_asks_are_answered_in_order():
    server = serve(lambda x, y: OracleValue.YES if x.simple < y.simple else OracleValue.NO)
    pairs = [("x%03d" % i, "x%03d" % ((i * 37) % 100)) for i in range(100)]
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"".join(b"ASK mem://f.xml#%s mem://f.xml#%s\n"
                                  % (x.encode(), y.encode()) for x, y in pairs))
            replies = [stream.readline() for _ in pairs]
        assert replies == [b"%s mem://f.xml#%s mem://f.xml#%s\n"
                           % (b"YES" if x < y else b"NO", x.encode(), y.encode())
                           for x, y in pairs]
    finally:
        server.shutdown()
        server.server_close()


def test_bisimilar_consults_served_oracle_first():
    engine = BisimulationEngine([F1], MemoryFetcher(bibdb_documents()))
    engine.start()
    engine.join(timeout=30)
    server = serve(engine.answer)
    host, port = server.server_address
    client = OracleClient(host, port)
    try:
        query_fetcher = MemoryFetcher(bibdb_documents())
        store = SessionStore(query_fetcher)
        facts = FactStore()
        helpers = BisimHelpers(oracle=client)
        assert bisimilar(SetName(F1, "b2"), SetName(F2, "p3"),
                         store, facts, helpers)
        assert query_fetcher.fetch_count == 0  # answered without any download
    finally:
        client.close()
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# A failing oracle
# ---------------------------------------------------------------------------

def bibdb_pairs():
    names = [SetName(F1, s) for s in ("BibDB", "b1", "b2")] + \
        [SetName(F2, s) for s in ("p1", "p2", "p3")]
    return list(itertools.combinations(names, 2))


def test_after_a_failed_connect_the_client_backs_off(monkeypatch):
    """Against a refused port, the asks inside the back-off interval read
    UNKNOWN without a connect attempt, and queries still answer right."""
    attempts = []
    connect = socket.create_connection

    def counting_connect(*args, **kwargs):
        attempts.append(args[0])
        return connect(*args, **kwargs)

    monkeypatch.setattr(engine_module.socket, "create_connection", counting_connect)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = OracleClient("127.0.0.1", port)   # nothing listens there any more
    started = time.monotonic()
    x, y = SetName(F1, "b2"), SetName(F2, "p3")
    assert all(client.ask(x, y) is OracleValue.UNKNOWN for _ in range(50))
    store, facts = SessionStore(MemoryFetcher(bibdb_documents())), FactStore()
    blocks = naive_bisimulation(closed_bibdb())
    for a, b in bibdb_pairs():
        assert bisimilar(a, b, store, facts, BisimHelpers(oracle=client)) == \
            (blocks[a] == blocks[b])
    assert time.monotonic() - started < RECONNECT_BACKOFF_S
    assert attempts == [("127.0.0.1", port)]


class _StubOracle(socketserver.StreamRequestHandler):
    """On the first connection, answers request number `server.fault_at`
    (0 unless set) with a garbled line, with a reply for another pair,
    closes without a reply or halfway through it, or sends the right reply
    in two writes 50 ms apart; answers every other request right."""

    def handle(self) -> None:
        server = self.server
        with server.lock:
            server.connections += 1
            faulty = server.connections == 1
        for index, line in enumerate(self.rfile):
            _, x, y = line.decode("utf-8").split()
            word = "YES" if server.blocks[parse_full_name(x)] == \
                server.blocks[parse_full_name(y)] else "NO"
            reply = ("%s %s %s\n" % (word, x, y)).encode("utf-8")
            if faulty and index == getattr(server, "fault_at", 0):
                if server.fault == "closes":
                    return
                if server.fault == "closes mid-reply":
                    self.wfile.write(reply[:len(reply) // 2])
                    return
                if server.fault == "two writes":
                    self.wfile.write(reply[:len(reply) // 2])
                    time.sleep(0.05)
                    reply = reply[len(reply) // 2:]
                elif server.fault == "wrong pair":
                    reply = ("YES %s#b2 %s#p3\n" % (F1, F2)).encode("utf-8")
                else:
                    reply = b"YE\xffS garbled\n"
                faulty = False
            self.wfile.write(reply)


@pytest.mark.parametrize("fault", ["garbled", "wrong pair", "closes"])
def test_a_faulty_reply_reads_unknown_and_the_next_ask_reconnects(fault):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StubOracle)
    server.daemon_threads = True
    server.fault, server.connections, server.lock = fault, 0, threading.Lock()
    server.blocks = naive_bisimulation(closed_bibdb())
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    client = OracleClient(*server.server_address)
    replies = []

    def oracle(pairs):
        values = client.ask_all(pairs)
        replies.extend(values)
        return values

    try:
        # the query's first ask meets the fault
        store, facts = SessionStore(MemoryFetcher(bibdb_documents())), FactStore()
        x, y = SetName(F1, "b1"), SetName(F2, "p1")
        assert bisimilar(x, y, store, facts, BisimHelpers(oracle=oracle)) is False
        assert replies[0] is OracleValue.UNKNOWN
        assert server.connections == 1
        # the next ask reconnects and is answered
        assert client.ask(SetName(F1, "b2"), SetName(F2, "p3")) is OracleValue.YES
        assert server.connections == 2
        for a, b in bibdb_pairs():
            assert bisimilar(a, b, store, facts, BisimHelpers(oracle=oracle)) == \
                (server.blocks[a] == server.blocks[b])
        assert server.connections == 2
    finally:
        client.close()
        server.shutdown()
        server.server_close()


def stub_oracle(fault, fault_at):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StubOracle)
    server.daemon_threads = True
    server.fault, server.fault_at = fault, fault_at
    server.connections, server.lock = 0, threading.Lock()
    server.blocks = naive_bisimulation(closed_bibdb())
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    return server


@pytest.mark.parametrize("fault", ["garbled", "wrong pair", "closes"])
@pytest.mark.parametrize("fault_at", [0, 6, 13])
def test_a_fault_mid_batch_keeps_the_replies_before_it(fault, fault_at):
    server = stub_oracle(fault, fault_at)
    client = OracleClient(*server.server_address)
    # the wrong-pair fault replies about b2 ? p3, so that pair is left out
    pairs = [pair for pair in bibdb_pairs() if pair != (SetName(F1, "b2"), SetName(F2, "p3"))]
    right = [OracleValue.YES if server.blocks[x] == server.blocks[y] else OracleValue.NO
             for x, y in pairs]
    try:
        assert client.ask_all(pairs) == \
            right[:fault_at] + [OracleValue.UNKNOWN] * (len(pairs) - fault_at)
        assert server.connections == 1
        assert client.ask_all(pairs) == right
        assert server.connections == 2
    finally:
        client.close()
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("fault", ["garbled", "wrong pair", "closes", "closes mid-reply"])
def test_a_faulty_reply_to_one_ask_reads_unknown_and_the_next_ask_reconnects(fault):
    # b1 ? p1 is not b2 ? p3, the pair the wrong-pair fault names
    server = stub_oracle(fault, 0)
    client = OracleClient(*server.server_address)
    try:
        assert client.ask(SetName(F1, "b1"), SetName(F2, "p1")) is OracleValue.UNKNOWN
        assert client._sock is None
        for x, y in bibdb_pairs():
            assert client.ask(x, y) is (OracleValue.YES if server.blocks[x] == server.blocks[y]
                                        else OracleValue.NO)
        assert server.connections == 2
    finally:
        client.close()
        server.shutdown()
        server.server_close()


def test_a_reply_in_two_writes_is_read_whole():
    server = stub_oracle("two writes", 0)
    client = OracleClient(*server.server_address)
    try:
        assert client.ask(SetName(F1, "b2"), SetName(F2, "p3")) is OracleValue.YES
        assert client.ask(SetName(F1, "b1"), SetName(F2, "p1")) is OracleValue.NO
        assert server.connections == 1
    finally:
        client.close()
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("writes", [
    # one request in two writes
    [b"ASK mem://f.xml#a mem://f", b".xml#b\n"],
    # a complete line and the start of the next, then its end
    [b"ASK mem://f.xml#a mem://f.xml#b\nASK mem://f.xml#b mem", b"://f.xml#a\n"],
    # two complete lines in one write
    [b"ASK mem://f.xml#a mem://f.xml#b\nASK mem://f.xml#b mem://f.xml#a\n"],
    # one line each, malformed and right, with a pause between
    [b"\n", b"ASK nohash mem://f.xml#a\n", b"ASK a\n", b"ASK mem://f.xml#b mem://f.xml#a\n"],
])
def test_requests_split_across_writes_are_answered_in_order(writes):
    """However the request bytes arrive, each line gets the reply it gets
    when all of them arrive in one write."""
    server = serve(lambda x, y: OracleValue.YES if x.simple < y.simple else OracleValue.NO)
    replies = {b"": b"ERROR malformed request\n",
               b"ASK a": b"ERROR malformed request\n",
               b"ASK nohash mem://f.xml#a": b"ERROR malformed set name\n",
               b"ASK mem://f.xml#a mem://f.xml#b": b"YES mem://f.xml#a mem://f.xml#b\n",
               b"ASK mem://f.xml#b mem://f.xml#a": b"NO mem://f.xml#b mem://f.xml#a\n"}
    expected = b"".join(replies[line] for line in b"".join(writes).split(b"\n")[:-1])
    try:
        for pause in (0.05, 0):
            with socket.create_connection(server.server_address, timeout=10) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for data in writes:
                    sock.sendall(data)
                    time.sleep(pause)
                sock.shutdown(socket.SHUT_WR)
                received = b""
                while True:
                    data = sock.recv(4096)
                    if not data:
                        break
                    received += data
            assert received == expected
    finally:
        server.shutdown()
        server.server_close()


def test_long_names_are_parsed_each_time_and_not_cached():
    """A name over MAX_CACHED_NAME characters is answered right but does
    not stay in the service's name cache."""
    server = serve(lambda x, y: OracleValue.YES if x.simple < y.simple else OracleValue.NO)
    client = OracleClient(*server.server_address)
    short = SetName("mem://f.xml", "a")
    longs = [SetName("mem://f.xml", "b%d" % i + "x" * 30000) for i in range(20)]
    engine_module._parse_cached.cache_clear()
    try:
        for name in longs:
            assert client.ask(short, name) is OracleValue.YES
            assert client.ask(name, short) is OracleValue.NO
        assert engine_module._parse_cached.cache_info().currsize == 1
    finally:
        client.close()
        server.shutdown()
        server.server_close()


class _SmallBufferServer(engine_module.OracleServer):
    """An ASK service whose sockets buffer little, as over a slow link."""

    def server_bind(self) -> None:
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            self.socket.setsockopt(socket.SOL_SOCKET, option, 64 * 1024)
        super().server_bind()


def test_a_large_batch_is_answered_in_one_call(monkeypatch):
    """20,000 pairs, far more bytes than the socket buffers on both ends
    hold: the client writes them in chunks and reads each chunk's replies
    before the next, so neither end blocks for good."""
    connect = socket.create_connection

    def small_buffer_connect(*args, **kwargs):
        sock = connect(*args, **kwargs)
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, 64 * 1024)
        return sock

    monkeypatch.setattr(engine_module.socket, "create_connection", small_buffer_connect)
    server = _SmallBufferServer(("127.0.0.1", 0),
                                lambda x, y: OracleValue.YES if x.simple < y.simple
                                else OracleValue.NO)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = OracleClient(*server.server_address, timeout=10)
    names = [SetName("mem://f.xml", "x%05d" % i) for i in range(20000)]
    pairs = [(x, names[(i * 7919) % len(names)]) for i, x in enumerate(names)]
    try:
        assert client.ask_all(pairs) == [OracleValue.YES if x.simple < y.simple
                                         else OracleValue.NO for x, y in pairs]
    finally:
        client.close()
        server.shutdown()
        server.server_close()


def test_a_lazy_round_asks_its_questions_in_one_call(monkeypatch):
    """Criterion 10c's scenario asks 25 questions over two lazy rounds."""
    calls = []

    class CountingClient(OracleClient):
        def ask_all(self, pairs):
            calls.append(len(pairs))
            return super().ask_all(pairs)

        __call__ = ask_all

    monkeypatch.setattr(experiments, "OracleClient", CountingClient)
    measured = experiments.run_experiment(experiments.build_three_file(names=61), "engine",
                                          delay_ms=0, fetch_latency_ms=25)
    assert measured.answer is True
    assert calls == [1, 24]


def test_a_request_line_over_the_cap_is_refused_and_the_service_continues():
    server = serve(lambda x, y: OracleValue.NO)
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            try:
                sock.sendall(b"A" * (1 << 20))   # no newline
            except OSError:
                pass   # the service stopped reading once the line passed the cap
            received = b""
            while True:
                data = sock.recv(4096)
                if not data:
                    break
                received += data
        assert received == b"ERROR malformed request\n"
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(b"ASK mem://f.xml#x mem://f.xml#y\n")
            assert sock.makefile("rb").readline() == b"NO mem://f.xml#x mem://f.xml#y\n"
    finally:
        server.shutdown()
        server.server_close()


def test_a_client_that_resets_its_connection_is_dropped_quietly():
    """A client that sends many asks and resets the connection unread ends
    that connection without an error report; the service goes on."""
    server = serve(lambda x, y: OracleValue.YES)
    errors, closed = [], threading.Event()
    server.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
    shutdown_request = server.shutdown_request

    def shutdown_and_signal(request):
        shutdown_request(request)
        closed.set()

    server.shutdown_request = shutdown_and_signal
    try:
        with socket.create_connection(server.server_address, timeout=2) as sock:
            try:
                sock.sendall(b"ASK mem://f.xml#x mem://f.xml#y\n" * 20000)
            except OSError:
                pass   # both directions are full: the service waits on its sendall
            # linger 0: close sends a reset instead of a FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert closed.wait(10)
        assert errors == []
        client = OracleClient(*server.server_address)
        assert client.ask(SetName(F1, "b2"), SetName(F2, "p3")) is OracleValue.YES
        client.close()
    finally:
        server.shutdown()
        server.server_close()


def test_after_a_reply_timeout_the_client_backs_off():
    """A service that accepts and never replies costs one timeout, not one
    per ask."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        client = OracleClient(*listener.getsockname(), timeout=0.2)
        x, y = SetName(F1, "b2"), SetName(F2, "p3")
        started = time.monotonic()
        assert client.ask(x, y) is OracleValue.UNKNOWN
        assert 0.15 <= time.monotonic() - started < 2
        accepted, _ = listener.accept()
        accepted.close()
        started = time.monotonic()
        assert client.ask_all([(x, y), (y, x)]) == [OracleValue.UNKNOWN] * 2
        assert time.monotonic() - started < 0.1
        listener.settimeout(0.3)
        with pytest.raises(socket.timeout):
            listener.accept()   # no second connection
        client.close()
