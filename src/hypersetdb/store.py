"""Session store: a cache of set equations fed by on-demand document fetching.

Each document is fetched at most once per session; all its equations enter the
cache together.  Fetchers are plain callables url -> text so tests can serve
documents from memory and experiments can inject simulated latency.  The
documents one step of a computation needs are fetched as one concurrent
batch and merged in a fixed order, so fetchers must be thread-safe.
"""

from __future__ import annotations

import functools
import threading
import time
import urllib.parse
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from . import xmlwdb
from .names import (
    EquationSystem, FlatExpr, LOCAL_URL, NameAllocator, SetName,
    UndefinedNameError, WdbError,
)

Fetcher = Callable[[str], str]

# Fetches of one batch in flight at once, the caller's own included.
MAX_FETCHES_IN_FLIGHT = 8


class FetchError(WdbError):
    pass


def fetch_concurrently(calls: Sequence[Callable[[], object]]) -> List[object]:
    """Run zero-argument fetch calls at the same time, at most
    MAX_FETCHES_IN_FLIGHT at once, and return what each returned or the
    exception it raised, in the order given (read them with `settled`).

    Calls are taken in order.  The caller's thread runs the first, so a batch of
    one starts no thread.  Once a call has failed no further call starts, so
    every call before the first failure has completed.  Every thread started
    has ended on return."""
    outcomes: List[object] = [None] * len(calls)
    lock = threading.Lock()
    claimed, failed = 0, False

    def claim() -> Optional[int]:
        nonlocal claimed
        with lock:
            if failed or claimed == len(calls):
                return None
            claimed += 1
            return claimed - 1

    def work(index: Optional[int]) -> None:
        nonlocal failed
        while index is not None:
            try:
                outcomes[index] = calls[index]()
            except BaseException as exc:  # raised again by `settled` on the caller's thread
                outcomes[index] = exc
                with lock:
                    failed = True
            index = claim()

    first = claim()
    helpers: List[threading.Thread] = []
    try:
        for _ in range(min(len(calls), MAX_FETCHES_IN_FLIGHT) - 1):
            helper = threading.Thread(target=work, args=(claim(),), daemon=True)
            helper.start()
            helpers.append(helper)
        work(first)
    finally:
        for helper in helpers:
            helper.join()
    return outcomes


def settled(outcome: object) -> object:
    """The result of a call of `fetch_concurrently`, or raise its exception."""
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


class MemoryFetcher:
    """Serves documents from a dict; counts fetches for laziness tests."""

    def __init__(self, documents: Optional[Dict[str, str]] = None) -> None:
        self.documents = dict(documents or {})
        self.fetch_count = 0
        self.fetched: List[str] = []
        self.lock = threading.Lock()

    def add(self, url: str, text: str) -> None:
        self.documents[url] = text

    def __call__(self, url: str) -> str:
        with self.lock:
            self.fetch_count += 1
            self.fetched.append(url)
        try:
            return self.documents[url]
        except KeyError:
            raise FetchError("no such document: %s" % url)


class FileFetcher:
    """Resolves file:// URLs against the local filesystem and, unless network
    access is disabled, http(s):// URLs via urllib.  `urllib.request` is
    imported only for a network fetch: it costs several megabytes of memory
    in every process that loads it."""

    def __init__(self, allow_network: bool = True, timeout: float = 30.0) -> None:
        self.allow_network = allow_network
        self.timeout = timeout
        self.fetch_count = 0
        self.lock = threading.Lock()

    def __call__(self, url: str) -> str:
        with self.lock:
            self.fetch_count += 1
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme == "file":
            path = urllib.parse.unquote(parsed.path)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    return handle.read()
            except OSError as exc:
                raise FetchError("cannot read %s: %s" % (url, exc))
        if parsed.scheme in ("http", "https"):
            if not self.allow_network:
                raise FetchError("network disabled, cannot fetch %s" % url)
            from urllib.request import urlopen
            try:
                with urlopen(url, timeout=self.timeout) as conn:
                    return conn.read().decode("utf-8")
            except Exception as exc:
                raise FetchError("cannot fetch %s: %s" % (url, exc))
        raise FetchError("unsupported URL scheme: %s" % url)


class LatencyFetcher:
    """Wraps a fetcher, sleeping a fixed time per call (simulated download)."""

    def __init__(self, inner: Fetcher, latency_ms: float) -> None:
        self.inner = inner
        self.latency_ms = latency_ms
        self.fetch_count = 0
        self.lock = threading.Lock()

    def __call__(self, url: str) -> str:
        with self.lock:
            self.fetch_count += 1
        if self.latency_ms > 0:
            time.sleep(self.latency_ms / 1000.0)
        return self.inner(url)


class SessionStore:
    """The working store of one query session: cached WDB equations plus
    equations generated during evaluation, and the fresh-name source.

    Equations are write-once: fetched and generated names alike are defined
    once and never rewritten, which the equality kernel's dependency index
    relies on.
    """

    def __init__(self, fetcher: Optional[Fetcher] = None) -> None:
        self.system = EquationSystem()
        self.fetcher = fetcher or FileFetcher()
        self.loaded_documents: Dict[str, bool] = {}
        self.allocator = NameAllocator()

    # -- fresh local names -------------------------------------------------

    def fresh(self, hint: str = "res") -> SetName:
        return self.allocator.fresh(self.system, hint)

    def define(self, name: SetName, elements: FlatExpr) -> None:
        self.system.define(name, elements)

    # -- document loading --------------------------------------------------

    def unloaded(self, urls: Iterable[str]) -> List[str]:
        """The distinct URLs among urls whose documents are still to fetch,
        in the order given."""
        return [url for url in dict.fromkeys(urls)
                if url not in self.loaded_documents and url != LOCAL_URL]

    def merge_document(self, url: str, text: str) -> None:
        system = xmlwdb.load_equations(text, url)
        self.system.merge(system)
        self.loaded_documents[url] = True

    def load_documents(self, urls: Iterable[str]) -> None:
        """Fetch the documents not yet loaded concurrently and merge them in
        the order given; the first failure in that order is raised after the
        documents before it are merged."""
        urls = self.unloaded(urls)
        fetched = fetch_concurrently([functools.partial(self.fetcher, url) for url in urls])
        for url, outcome in zip(urls, fetched):
            self.merge_document(url, settled(outcome))

    def load_document(self, url: str) -> None:
        self.load_documents([url])

    def lookup(self, name: SetName) -> FlatExpr:
        """The equation for a full set name, fetching its document once if
        needed.  Subsequent lookups of any name from that document hit the
        cache."""
        if name in self.system:
            return self.system[name]
        if name.is_local():
            raise UndefinedNameError("undefined local name %s" % name.full)
        self.load_document(name.url)
        return self.system[name]
