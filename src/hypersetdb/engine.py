"""The Oracle: a service answering bisimulation questions Yes/No/Unknown.

Two modes: a background engine that walks the served WDB documents and
partitions the names whose closure it has loaded into bisimilarity classes
(answering pairs with a name still open from approximation files, when it
reads them); and a trivial imitation answering straight from an XML file of
facts with per-fact delays.

Wire protocol (newline-delimited text over TCP):
    request   ASK <full-name-x> <full-name-y>
    response  YES <x> <y> | NO <x> <y> | UNKNOWN <x> <y>
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from .approx import make_approx_reader, read_facts, write_facts
# The engine decides nothing with `bisimilar`; the name stays because the
# benchmark's tracer wraps `engine.bisimilar` and its self-test patches it.
from .bisim import bisimilar  # noqa: F401
from .bisim import (BisimulationError, FactStore, OracleValue, Pair, Status,
                    naive_bisimulation, pair_key, stable_blocks)
from .names import (EquationSystem, NameError_, SetName, UndefinedNameError,
                    parse_full_name)
from .store import Fetcher, SessionStore, fetch_concurrently, settled

# An approximation fact: x ? y answered Yes (True) or No (False).
Fact = Tuple[SetName, SetName, bool]

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
    """Settles equality over the served WDB in background time.

    The engine walks the documents reachable from its roots in batches: the
    roots, then the documents the loaded ones reference, sorted by URL.
    Each batch fetches its documents, and with use_approximations=True the
    approximation file next to each, as one concurrent batch.  The names
    whose closure is then fully loaded form a finite graph, on which
    equality is the coarsest stable partition: after each batch
    `stable_blocks` computes it, and the engine publishes the blocks with
    the approximation facts read so far as one immutable snapshot.  `answer`
    reads only that snapshot, so a pair with a name whose closure is still
    open reads Unknown unless an approximation file decides it.  An
    approximation fact that the partition contradicts, once both its names
    are closed, stops the engine with a `BisimulationError` that `join`
    raises.
    """

    def __init__(self, roots: List[str], fetcher: Fetcher,
                 use_approximations: bool = False) -> None:
        self.roots = list(roots)
        self.store = SessionStore(fetcher)
        # Holds the approximation facts as they are read.  Only the engine
        # thread touches it; the benchmark reads `engine.facts.status`.
        self.facts = FactStore()
        self.approx_reader = make_approx_reader(fetcher) if use_approximations else None
        self.complete = threading.Event()
        # (block per closed name, approximation facts), replaced whole
        self._snapshot: Tuple[Dict[SetName, int], Dict[Pair, bool]] = ({}, {})
        self._thread: Optional[threading.Thread] = None
        self._failure: Optional[Exception] = None

    @property
    def documents_fetched(self) -> int:
        return len(self.store.loaded_documents)

    @property
    def productive_rounds(self) -> int:
        # The engine derives nothing, so this reads 0; it stays because
        # criterion 10b and the benchmark read it.
        return self.facts.productive_rounds

    # -- background work ------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            equations = self.store.system.equations
            closed: Set[SetName] = set()
            open_names: Set[SetName] = set()
            unchecked: List[Fact] = []
            urls = self.store.unloaded(self.roots)
            while urls:
                known = len(equations)
                unchecked.extend(self._load(urls))
                open_names.update(list(equations)[known:])
                missing = self._close(open_names, closed)
                blocks = stable_blocks(closed, equations)
                unchecked = self._check(blocks, unchecked)
                seeded = {key: status is Status.YES
                          for key, status in self.facts.status.items()}
                self._snapshot = (blocks, seeded)
                urls = self.store.unloaded(sorted({name.url for name in missing}))
                for name in missing:
                    if name.url not in urls:
                        raise UndefinedNameError("referenced set name undefined: %s"
                                                 % name.full)
        except Exception as exc:  # pragma: no cover - surfaced via join()
            self._failure = exc
        finally:
            self.complete.set()

    def _load(self, urls: List[str]) -> List[Fact]:
        """Fetch the documents and their approximation files as one batch,
        merge the documents in the order given and seed the facts; returns
        the facts read."""
        calls = [partial(self.store.fetcher, url) for url in urls]
        if self.approx_reader is not None:
            calls += [partial(self.approx_reader, url) for url in urls]
        outcomes = fetch_concurrently(calls)
        for url, outcome in zip(urls, outcomes):
            self.store.merge_document(url, settled(outcome))
        read: List[Fact] = []
        for outcome in outcomes[len(urls):]:
            read.extend(settled(outcome))
        for a, b, value in read:
            self.facts.resolve(a, b, value)
        return read

    def _close(self, open_names: Set[SetName], closed: Set[SetName]) -> Set[SetName]:
        """Move the names of open_names whose closure is loaded to closed;
        returns the members without an equation that keep the rest open."""
        equations = self.store.system.equations
        missing: Set[SetName] = set()
        predecessors: Dict[SetName, List[SetName]] = {}
        stack: List[SetName] = []
        for name in open_names:
            for el in equations[name]:
                if el.member in closed:
                    continue
                if el.member in equations:
                    predecessors.setdefault(el.member, []).append(name)
                else:
                    missing.add(el.member)
                    stack.append(name)
        still_open = set(stack)
        while stack:
            for name in predecessors.get(stack.pop(), ()):
                if name not in still_open:
                    still_open.add(name)
                    stack.append(name)
        closed.update(open_names - still_open)
        open_names.intersection_update(still_open)
        return missing

    @staticmethod
    def _check(blocks: Dict[SetName, int], facts: List[Fact]) -> List[Fact]:
        """The facts with a name that has no block yet; raises on a fact
        that the blocks contradict."""
        unchecked = []
        for a, b, value in facts:
            if a not in blocks or b not in blocks:
                unchecked.append((a, b, value))
            elif (blocks[a] == blocks[b]) is not value:
                raise BisimulationError(
                    "approximation fact %s %s %s contradicts the loaded documents"
                    % (a.full, "=" if value else "!=", b.full))
        return unchecked

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
        if self._failure is not None:
            raise self._failure

    # -- answering ---------------------------------------------------------------

    def answer(self, x: SetName, y: SetName) -> OracleValue:
        if x == y:
            return OracleValue.YES
        blocks, seeded = self._snapshot
        if x in blocks and y in blocks:
            decided: Optional[bool] = blocks[x] == blocks[y]
        else:
            decided = seeded.get(pair_key(x, y))
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
