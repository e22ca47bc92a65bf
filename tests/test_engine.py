import itertools
import socket
import socketserver
import threading
import time

import pytest

from hypersetdb.bisim import (
    BisimHelpers, FactStore, OracleValue, bisimilar, naive_bisimulation,
)
from hypersetdb import engine as engine_module
from hypersetdb.engine import (
    RECONNECT_BACKOFF_S, BisimulationEngine, OracleClient, TrivialOracle,
    generate_trivial_oracle_xml, serve,
)
from hypersetdb.names import EquationSystem, SetName, WdbError, parse_full_name
from hypersetdb.store import FetchError, MemoryFetcher, SessionStore
from hypersetdb.xmlwdb import load_equations

from conftest import bibdb_f1_text, bibdb_f2_text

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
    """On the first connection, answers the first request with a garbled
    line or closes without a reply; answers right on later connections."""

    def handle(self) -> None:
        server = self.server
        with server.lock:
            server.connections += 1
            faulty = server.connections == 1
        for line in self.rfile:
            if faulty:
                if server.fault == "closes":
                    return
                self.wfile.write(b"YE\xffS garbled\n")
                faulty = False
                continue
            _, x, y = line.decode("utf-8").split()
            word = "YES" if server.blocks[parse_full_name(x)] == \
                server.blocks[parse_full_name(y)] else "NO"
            self.wfile.write(("%s %s %s\n" % (word, x, y)).encode("utf-8"))


@pytest.mark.parametrize("fault", ["garbled", "closes"])
def test_a_faulty_reply_reads_unknown_and_the_next_ask_reconnects(fault):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StubOracle)
    server.daemon_threads = True
    server.fault, server.connections, server.lock = fault, 0, threading.Lock()
    server.blocks = naive_bisimulation(closed_bibdb())
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    client = OracleClient(*server.server_address)
    replies = []

    def oracle(x, y):
        replies.append(client.ask(x, y))
        return replies[-1]

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
