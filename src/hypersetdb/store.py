"""Session store: a cache of set equations fed by on-demand document fetching.

Each document is fetched at most once per session; all its equations enter the
cache together.  Fetchers are plain callables url -> text so tests can serve
documents from memory and experiments can inject simulated latency.
"""

from __future__ import annotations

import threading
import time
import urllib.parse
from typing import Callable, Dict, List, Optional

from . import xmlwdb
from .names import (
    EquationSystem, FlatExpr, LOCAL_URL, NameAllocator, SetName,
    UndefinedNameError, WdbError,
)

Fetcher = Callable[[str], str]


class FetchError(WdbError):
    pass


class MemoryFetcher:
    """Serves documents from a dict; counts fetches for laziness tests."""

    def __init__(self, documents: Optional[Dict[str, str]] = None) -> None:
        self.documents = dict(documents or {})
        self.fetch_count = 0
        self.fetched: List[str] = []

    def add(self, url: str, text: str) -> None:
        self.documents[url] = text

    def __call__(self, url: str) -> str:
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

    def __call__(self, url: str) -> str:
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

    def load_document(self, url: str) -> None:
        if url in self.loaded_documents or url == LOCAL_URL:
            return
        text = self.fetcher(url)
        system = xmlwdb.load_equations(text, url)
        self.system.merge(system)
        self.loaded_documents[url] = True

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
