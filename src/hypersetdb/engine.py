"""The Oracle: a service answering bisimulation questions Yes/No/Unknown.

Two modes: a background engine that walks the served WDB documents, derives
all bisimulation facts (optionally seeded from approximation files) and
postulates the remainder at exhaustion; and a trivial imitation answering
straight from an XML file of facts with per-fact delays.

Wire protocol (newline-delimited text over TCP):
    request   ASK <full-name-x> <full-name-y>
    response  YES <x> <y> | NO <x> <y> | UNKNOWN <x> <y>
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import threading
import time
from typing import Dict, List, Optional, Tuple

from .approx import make_approx_reader, read_facts, write_facts
from .bisim import (BisimHelpers, FactStore, OracleValue, bisimilar,
                    naive_bisimulation, pair_key)
from .names import EquationSystem, NameError_, SetName, parse_full_name
from .store import Fetcher, SessionStore

# After a failed connect an OracleClient answers Unknown, without trying to
# connect again, for this many seconds.
RECONNECT_BACKOFF_S = 5.0


# ---------------------------------------------------------------------------
# Trivial oracle: facts with delays, served from an XML file
# ---------------------------------------------------------------------------

class TrivialOracle:
    """Answers from a fixed fact table; a fact with delay d milliseconds reads
    Unknown until d has passed since service start."""

    def __init__(self, facts: Dict[Tuple[SetName, SetName], Tuple[bool, float]]) -> None:
        self.facts = facts
        self.started = time.monotonic()

    @classmethod
    def from_xml(cls, text: str) -> "TrivialOracle":
        return cls({pair_key(x, y): (value, delay)
                    for x, y, value, delay in read_facts(text, "oracle")})

    def answer(self, x: SetName, y: SetName) -> OracleValue:
        if x == y:
            return OracleValue.YES
        entry = self.facts.get(pair_key(x, y))
        if entry is None:
            return OracleValue.UNKNOWN
        value, delay_ms = entry
        if (time.monotonic() - self.started) * 1000.0 < delay_ms:
            return OracleValue.UNKNOWN
        return OracleValue.YES if value else OracleValue.NO


def generate_trivial_oracle_xml(system: EquationSystem,
                                delays: Optional[Dict[Tuple[SetName, SetName], int]] = None,
                                default_delay: int = 0) -> str:
    """All pairwise facts of a closed WDB in the grouped facts format;
    values are computed, correctness is therefore guaranteed."""
    blocks = naive_bisimulation(system)
    delays = delays or {}
    return write_facts("oracle", list(system.equations),
                       lambda x, y: blocks[x] == blocks[y],
                       lambda x, y: delays.get(pair_key(x, y), default_delay))


# ---------------------------------------------------------------------------
# The background bisimulation engine
# ---------------------------------------------------------------------------

class BisimulationEngine:
    """Derives all bisimulation facts for the served WDB in background time.

    The engine loads its root documents and then resolves every pair of known
    names, in lexicographic order without prioritisation, using the same lazy
    resolution algorithm as the query system; newly discovered documents feed
    further sweeps until nothing is left undecided.  With
    use_approximations=True the approximation file next to each fetched
    document seeds the fact table without derivation; each file is read
    once, since the fact store records which documents' files it has read.
    """

    def __init__(self, roots: List[str], fetcher: Fetcher,
                 use_approximations: bool = False) -> None:
        self.roots = list(roots)
        self.store = SessionStore(fetcher)
        self.facts = FactStore()
        self.helpers = BisimHelpers(
            approx_reader=make_approx_reader(fetcher) if use_approximations else None)
        self.complete = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._failure: Optional[Exception] = None

    @property
    def documents_fetched(self) -> int:
        return len(self.store.loaded_documents)

    @property
    def productive_rounds(self) -> int:
        return self.facts.productive_rounds

    # -- background work ------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            self.store.load_documents(self.roots)
            while True:
                progress = self._walk_reachable()
                names = sorted(self.store.system.equations)
                for x, y in itertools.combinations(names, 2):
                    if self.facts.decided(x, y) is None:
                        bisimilar(x, y, self.store, self.facts, self.helpers)
                        progress = True
                if not progress and len(self.store.system.equations) == len(names):
                    break
        except Exception as exc:  # pragma: no cover - surfaced via join()
            self._failure = exc
        finally:
            self.complete.set()

    def _walk_reachable(self) -> bool:
        """Load the documents of referenced names not yet covered, as one
        batch in URL order."""
        system = self.store.system
        urls = self.store.unloaded(sorted({name.url for name in system.referenced_names()
                                          if name not in system}))
        self.store.load_documents(urls)
        return bool(urls)

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
        if self._failure is not None:
            raise self._failure

    # -- answering ---------------------------------------------------------------

    def answer(self, x: SetName, y: SetName) -> OracleValue:
        decided = self.facts.decided(x, y)
        if decided is None:
            return OracleValue.UNKNOWN
        return OracleValue.YES if decided else OracleValue.NO


# ---------------------------------------------------------------------------
# TCP service and client
# ---------------------------------------------------------------------------

class _AskHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while True:
            line = self.rfile.readline()
            if not line:
                return
            try:
                parts = line.decode("utf-8").split()
            except UnicodeDecodeError:
                parts = []
            if len(parts) != 3 or parts[0] != "ASK":
                self.wfile.write(b"ERROR malformed request\n")
                continue
            try:
                x, y = parse_full_name(parts[1]), parse_full_name(parts[2])
            except NameError_:
                self.wfile.write(b"ERROR malformed set name\n")
                continue
            value = self.server.answer_fn(x, y)  # type: ignore[attr-defined]
            word = {OracleValue.YES: "YES", OracleValue.NO: "NO",
                    OracleValue.UNKNOWN: "UNKNOWN"}[value]
            reply = "%s %s %s\n" % (word, x.full, y.full)
            self.wfile.write(reply.encode("utf-8"))


class OracleServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, answer_fn) -> None:
        super().__init__(address, _AskHandler)
        self.answer_fn = answer_fn


def serve(answer_fn, host: str = "127.0.0.1", port: int = 0) -> OracleServer:
    """Start the ASK protocol service in a background thread; returns the
    server (its address is server.server_address)."""
    server = OracleServer((host, port), answer_fn)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class OracleClient:
    """Blocking request/response client for the ASK protocol.

    The oracle is advisory: a connection that fails or closes, an ERROR
    reply or a garbled one reads UNKNOWN, so the query derives the answer
    itself.  The socket is then dropped and the next ask reconnects, except
    that after a failed connect every ask reads UNKNOWN at once until
    RECONNECT_BACKOFF_S have passed."""

    _REPLIES = {"YES": OracleValue.YES, "NO": OracleValue.NO,
                "UNKNOWN": OracleValue.UNKNOWN}

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.address = (host, port)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._lock = threading.Lock()
        self._retry_at = 0.0   # no connect attempt before this monotonic time

    def ask(self, x: SetName, y: SetName) -> OracleValue:
        with self._lock:
            if self._sock is None:
                if time.monotonic() < self._retry_at:
                    return OracleValue.UNKNOWN
                try:
                    self._sock = socket.create_connection(self.address,
                                                          timeout=self.timeout)
                except OSError:
                    self._retry_at = time.monotonic() + RECONNECT_BACKOFF_S
                    return OracleValue.UNKNOWN
                self._file = self._sock.makefile("rwb")
            try:
                self._file.write(("ASK %s %s\n" % (x.full, y.full)).encode("utf-8"))
                self._file.flush()
                reply = self._file.readline().decode("utf-8", "replace").split()
            except OSError:
                reply = []
            value = self._REPLIES.get(reply[0]) if reply else None
            if value is None:
                self._drop()
                return OracleValue.UNKNOWN
            return value

    def _drop(self) -> None:
        sock, self._sock, self._file = self._sock, None, None
        if sock is not None:
            sock.close()

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __call__(self, x: SetName, y: SetName) -> OracleValue:
        return self.ask(x, y)
