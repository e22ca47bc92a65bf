"""The Oracle: a service answering bisimulation questions Yes/No/Unknown.

Two modes: a background engine that walks the served WDB documents and
gives the names whose closure it has loaded class ids, with the same
`ClassIds` partition the evaluator decides equality by (answering pairs with
a name still open from approximation files, when it reads them); and a
trivial imitation answering straight from an XML file of facts with
per-fact delays.

Wire protocol (newline-delimited text over TCP):
    request   ASK <full-name-x> <full-name-y>
    response  YES <x> <y> | NO <x> <y> | UNKNOWN <x> <y>
              | ERROR malformed request | ERROR malformed set name
Requests may be pipelined; replies come in request order.  A line over
MAX_REQUEST_LINE bytes gets `ERROR malformed request`, and its connection
is closed if no newline came within the cap.  Names up to MAX_CACHED_NAME
characters are parsed once.  `OracleClient.ask` is one write and one reply
read.  A client reads Unknown for RECONNECT_BACKOFF_S after a failed
connect or a reply timeout.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .approx import make_approx_reader, read_facts, write_facts
# The engine decides nothing with `bisimilar`; the name stays because the
# benchmark's tracer wraps `engine.bisimilar` and its self-test patches it.
from .bisim import bisimilar  # noqa: F401
from .bisim import (BisimulationError, FactStore, OracleValue, Pair, Status,
                    pair_key, stable_blocks)
from .classids import ClassIds
from .names import (EquationSystem, NameError_, SetName, UndefinedNameError,
                    parse_full_name)
from .store import Fetcher, SessionStore

# An approximation fact: x ? y answered Yes (True) or No (False).
Fact = Tuple[SetName, SetName, bool]

# After a failed connect or a reply timeout an OracleClient answers Unknown,
# without trying to connect again, for this many seconds.
RECONNECT_BACKOFF_S = 5.0
# The longest request line served; the most request bytes sent unanswered.
MAX_REQUEST_LINE, ASK_CHUNK_BYTES = 64 * 1024, 32 * 1024
# The longest name text the service keeps parsed; a longer one is parsed
# each time, so the cache holds at most 1,024 names of this size.
MAX_CACHED_NAME = 1024


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


def generate_trivial_oracle_xml(system: EquationSystem) -> str:
    """All pairwise facts of a closed WDB in the grouped facts format, each
    with delay 0.  The values are the system's bisimulation classes, so
    they are correct; a member without an equation raises
    BisimulationError."""
    def foreign(member: SetName) -> None:
        raise BisimulationError("the trivial oracle needs a closed system; %s is foreign"
                                % member.full)
    blocks = stable_blocks(system.equations, system.equations, outside=foreign)
    return write_facts("oracle", list(system.equations),
                       lambda x, y: blocks[x] == blocks[y], delay="0")


# ---------------------------------------------------------------------------
# The background bisimulation engine
# ---------------------------------------------------------------------------

class BisimulationEngine:
    """Settles equality over the served WDB in background time.

    The engine walks the documents reachable from its roots in batches: the
    roots, then the documents the loaded ones reference, sorted by URL.
    Each batch fetches its documents, and with use_approximations=True the
    approximation file next to each, as one concurrent batch.  After each
    batch the engine's `ClassIds` interns every loaded name still without
    an id: a name gets one once its closure is fully loaded, cycles
    included, and two names are equal exactly when their ids are.  The
    engine publishes a copy of the ids with the approximation facts read so
    far as one immutable snapshot.  `answer` reads only that snapshot, so a
    pair with a name whose closure is still open reads Unknown unless an
    approximation file decides it.  An approximation fact that the ids
    contradict, once both its names have one, stops the engine with a
    `BisimulationError` that `join` raises.
    """

    def __init__(self, roots: List[str], fetcher: Fetcher,
                 use_approximations: bool = False) -> None:
        self.roots = list(roots)
        self.store = SessionStore(fetcher)
        self.class_ids = ClassIds(self.store)
        # Holds the approximation facts as they are read.  Only the engine
        # thread touches it; the benchmark reads `engine.facts.status`.
        self.facts = FactStore()
        self.approx_reader = make_approx_reader(fetcher) if use_approximations else None
        self.complete = threading.Event()
        # (class id per closed name, approximation facts), replaced whole
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
            ids = self.class_ids.ids
            unchecked: List[Fact] = []
            urls = self.store.unloaded(self.roots)
            while urls:
                read = self.store.load_documents(urls, self.approx_reader)
                for a, b, value in read:
                    self.facts.resolve(a, b, value)
                unchecked.extend(read)
                # intern every name; an open one names the members it lacks
                missing = {el.member for name, elements in equations.items()
                           if self.class_ids.of(name) is None
                           for el in elements if el.member not in equations}
                unchecked = self._check(ids, unchecked)
                seeded = {key: status is Status.YES
                          for key, status in self.facts.status.items()}
                self._snapshot = (dict(ids), seeded)
                urls = self.store.unloaded(sorted({name.url for name in missing}))
                for name in missing:
                    if name.url not in urls:
                        raise UndefinedNameError("referenced set name undefined: %s"
                                                 % name.full)
        except Exception as exc:  # pragma: no cover - surfaced via join()
            self._failure = exc
        finally:
            self.complete.set()

    @staticmethod
    def _check(ids: Dict[SetName, int], facts: List[Fact]) -> List[Fact]:
        """The facts with a name that has no class id yet; raises on a
        fact that the ids contradict."""
        unchecked = []
        for a, b, value in facts:
            if a not in ids or b not in ids:
                unchecked.append((a, b, value))
            elif (ids[a] == ids[b]) is not value:
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
        ids, seeded = self._snapshot
        if x in ids and y in ids:
            decided: Optional[bool] = ids[x] == ids[y]
        else:
            decided = seeded.get(pair_key(x, y))
        if decided is None:
            return OracleValue.UNKNOWN
        return OracleValue.YES if decided else OracleValue.NO


# ---------------------------------------------------------------------------
# TCP service and client
# ---------------------------------------------------------------------------

_WORDS = {OracleValue.YES: "YES", OracleValue.NO: "NO", OracleValue.UNKNOWN: "UNKNOWN"}
_parse_cached = lru_cache(maxsize=1024)(parse_full_name)   # a name asked again is parsed once


def _parse_name(text: str) -> SetName:
    return _parse_cached(text) if len(text) <= MAX_CACHED_NAME else parse_full_name(text)


def _reply(line: bytes, answer_fn: Callable[[SetName, SetName], OracleValue]) -> bytes:
    try:
        parts = line.decode("utf-8").split()
    except UnicodeDecodeError:
        parts = []
    if len(parts) != 3 or parts[0] != "ASK" or len(line) > MAX_REQUEST_LINE:
        return b"ERROR malformed request\n"
    try:
        x, y = _parse_name(parts[1]), _parse_name(parts[2])
    except NameError_:
        return b"ERROR malformed set name\n"
    return ("%s %s %s\n" % (_WORDS[answer_fn(x, y)], x.full, y.full)).encode("utf-8")


class _AskHandler(socketserver.BaseRequestHandler):
    """Answers the complete request lines that have arrived with one
    `sendall`, under TCP_NODELAY so that no reply waits for a delayed ACK.
    A client that has gone (an OSError from `recv` or `sendall`) ends its
    connection quietly."""

    def handle(self) -> None:
        sock, answer_fn = self.request, self.server.answer_fn  # type: ignore[attr-defined]
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        pending = b""   # the first bytes of a request line
        while True:
            try:
                data = sock.recv(4096)
            except OSError:
                return
            *lines, pending = (pending + data).split(b"\n")
            # the last line may lack its newline; a line over the cap is refused
            last = not data or len(pending) > MAX_REQUEST_LINE
            if last and pending:
                lines.append(pending)
            if lines:
                replies = b"".join([_reply(line, answer_fn) for line in lines])
                try:
                    sock.sendall(replies)
                except OSError:
                    return
            if last:
                return


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
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


class OracleClient:
    """Pipelining client: `ask` asks one pair with one write and one reply
    read, `ask_all` a batch of pairs in one round trip.

    The oracle is advisory: a connection that fails or closes, an ERROR
    reply, a garbled one or one that names another pair reads UNKNOWN for
    its pair and every later pair of the batch, and drops the socket; the
    next ask reconnects, except that after a failed connect or a reply
    timeout every ask reads UNKNOWN at once for RECONNECT_BACKOFF_S."""

    _REPLIES = {word.encode("ascii"): value for value, word in _WORDS.items()}

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.address = (host, port)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._retry_at = 0.0   # no connect attempt before this monotonic time

    def ask(self, x: SetName, y: SetName) -> OracleValue:
        request = ("ASK %s %s\n" % (x.full, y.full)).encode("utf-8")
        with self._lock:
            sock = self._sock
            try:
                if sock is None:
                    if time.monotonic() < self._retry_at:
                        return OracleValue.UNKNOWN
                    sock = self._connect()
                sock.sendall(request)
                reply = sock.recv(4096)
                while reply[-1:] != b"\n":
                    data = sock.recv(4096)
                    if not data:
                        raise ConnectionError("the service closed mid-reply")
                    reply += data
                return self._value(request, reply[:-1])
            except OSError as exc:
                self._failed(exc)
                return OracleValue.UNKNOWN

    def ask_all(self, pairs: Sequence[Pair]) -> List[OracleValue]:
        """One value per pair, in order."""
        requests = [("ASK %s %s\n" % (x.full, y.full)).encode("utf-8") for x, y in pairs]
        values: List[OracleValue] = []
        with self._lock:
            try:
                if requests and (self._sock is not None or time.monotonic() >= self._retry_at):
                    self._exchange(requests, values)
            except OSError as exc:
                self._failed(exc)
        return values + [OracleValue.UNKNOWN] * (len(requests) - len(values))

    __call__ = ask_all

    def _exchange(self, requests: List[bytes], values: List[OracleValue]) -> None:
        """Append the value of each reply; raises OSError at the first that
        does not answer its request.  A chunk's replies are read before the
        next chunk goes out, so neither end blocks on a full buffer for good."""
        sock = self._sock or self._connect()
        step = max(1, ASK_CHUNK_BYTES // max(map(len, requests)))
        for start in range(0, len(requests), step):
            chunk = requests[start:start + step]
            sock.sendall(b"".join(chunk))
            received = b""
            while received.count(b"\n") < len(chunk):
                data = sock.recv(4096)
                if not data:
                    break
                received += data
            # when the service closed early, the partial last line fails
            for request, reply in zip(chunk, received.split(b"\n")):
                values.append(self._value(request, reply))

    def _value(self, request: bytes, reply: bytes) -> OracleValue:
        """The value of a reply line without its newline; raises
        ConnectionError unless it answers the request."""
        word, _, pair = reply.partition(b" ")
        value = self._REPLIES.get(word)
        # a reply repeats its request's names: "ASK x y" -> "YES x y"
        if value is None or pair != request[4:-1]:
            raise ConnectionError("reply does not answer its request")
        return value

    def _connect(self) -> socket.socket:
        self._sock = sock = socket.create_connection(self.address, timeout=self.timeout)
        # kernel timeouts (EAGAIN): a Python-level timeout polls before each call
        sock.settimeout(None)
        timeval = struct.pack("ll", *divmod(int(self.timeout * 1e6), 1000000))
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            sock.setsockopt(socket.SOL_SOCKET, option, timeval)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _failed(self, exc: OSError) -> None:
        """Drops the socket; a failed connect or a reply timeout backs off."""
        if self._sock is None or isinstance(exc, BlockingIOError):
            self._retry_at = time.monotonic() + RECONNECT_BACKOFF_S
        self._drop()

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def close(self) -> None:
        with self._lock:
            self._drop()
