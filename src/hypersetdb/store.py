"""Session store: a cache of set equations fed by on-demand document fetching.

Each document is fetched at most once per session; all its equations enter the
cache together.  Fetchers are plain callables url -> text so tests can serve
documents from memory and experiments can inject simulated latency.  The
documents one step of a computation needs are fetched as one concurrent
batch and merged in a fixed order, so fetchers must be thread-safe.  A batch
runs on its caller's thread and on the process's fetch workers: daemon
threads, started on first need and reused by every later batch, session and
engine for the life of the process, and never in the way of its exit.  They
are at most MAX_FETCHES_IN_FLIGHT - 1 for each batch under way, and at most
that many once none is.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
import urllib.parse
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import xmlwdb
from .names import (
    EquationSystem, FlatExpr, LOCAL_URL, NameAllocator, SetName,
    UndefinedNameError, WdbError,
)

Fetcher = Callable[[str], str]
# document URL -> the approximation facts x ? y answered Yes (True) or No (False)
ApproxReader = Callable[[str], List[Tuple[SetName, SetName, bool]]]

# Fetches of one batch in flight at once, the caller's own included.
MAX_FETCHES_IN_FLIGHT = 8


class FetchError(WdbError):
    pass


class FetchWorkers:
    """The process's fetch workers: daemon threads, reused by every batch of
    any thread, each running posted jobs one at a time in the order posted.

    A post starts workers until there are as many as the jobs of the
    batches under way that are not yet done, so a batch is never queued
    behind the slow fetches of another thread's batch, and one thread's
    batches never use more than MAX_FETCHES_IN_FLIGHT - 1 workers.  A worker
    that finishes a job while there are more workers than both the jobs not
    yet done and MAX_FETCHES_IN_FLIGHT - 1 exits, so once no batch is under
    way at most MAX_FETCHES_IN_FLIGHT - 1 live on.  A job is held by weak
    reference, so one a worker reaches only after its batch has returned
    keeps nothing of the batch alive and is skipped.  Being daemons, idle
    or busy, the workers never keep the process from exiting."""

    def __init__(self) -> None:
        self.jobs: queue.SimpleQueue[weakref.WeakMethod] = queue.SimpleQueue()
        self.lock = threading.Lock()
        self.workers = 0        # live worker threads
        self.due = 0            # jobs posted and not yet done
        self.wanted = 0         # jobs posted by batches that have not returned

    def post(self, job: Callable[[], None], copies: int) -> None:
        """Queue copies of the bound method job for a batch under way until
        `returned`, first starting the workers they need."""
        with self.lock:
            self.due += copies
            self.wanted += copies
            while self.workers < min(self.due, self.wanted):
                threading.Thread(target=self.serve, name="fetch-worker", daemon=True).start()
                self.workers += 1
        job = weakref.WeakMethod(job)
        for _ in range(copies):
            self.jobs.put(job)

    def returned(self, copies: int) -> None:
        """The batch that posted copies jobs has returned."""
        with self.lock:
            self.wanted -= copies

    def serve(self) -> None:
        while True:
            job = self.jobs.get()()
            if job is not None:
                job()
                del job     # an idle worker holds no batch
            with self.lock:
                self.due -= 1
                if self.workers > max(self.due, MAX_FETCHES_IN_FLIGHT - 1):
                    self.workers -= 1
                    return


FETCH_WORKERS = FetchWorkers()


class FetchBatch:
    """The calls of one `fetch_concurrently`, their outcomes, and how many
    have been claimed and are running.  The caller's thread claims the
    first call as the batch is made."""

    def __init__(self, calls: Sequence[Callable[[], object]]) -> None:
        self.calls = calls
        self.outcomes: List[object] = [None] * len(calls)
        self.finished = threading.Condition(threading.Lock())
        self.claimed = self.running = 1
        self.failed = False

    def work(self, index: Optional[int] = None) -> None:
        """Run the call index, if given, then claim calls in order and run
        them until none is left to start."""
        while True:
            if index is not None:
                try:
                    self.outcomes[index] = self.calls[index]()
                except BaseException as exc:  # raised again by `settled` on the caller's thread
                    self.outcomes[index] = exc
                    with self.finished:
                        self.failed = True
            with self.finished:
                if index is not None:
                    self.running -= 1
                if self.failed or self.claimed == len(self.calls):
                    if not self.running:
                        self.finished.notify()
                    return
                index = self.claimed
                self.claimed += 1
                self.running += 1

    def join(self) -> None:
        """Wait until no claimed call is still running."""
        with self.finished:
            while self.running:
                self.finished.wait()


def fetch_concurrently(calls: Sequence[Callable[[], object]]) -> List[object]:
    """Run zero-argument fetch calls at the same time, at most
    MAX_FETCHES_IN_FLIGHT at once, and return what each returned or the
    exception it raised, in the order given (read them with `settled`).

    Calls are claimed in order by the caller's thread, which claims the
    first, and by up to MAX_FETCHES_IN_FLIGHT - 1 jobs posted to
    FETCH_WORKERS, which has a worker for each even while other threads'
    batches run.  A batch of one posts nothing, and a batch the caller
    finishes before a worker wakes needs none.  Once a call has failed no
    further call starts, so every call before the first failure has
    completed.  On return no call of the batch is still running; the
    workers live on, idle, for the next batch."""
    if not calls:
        return []
    batch = FetchBatch(calls)
    if len(calls) == 1:
        batch.work(0)
        return batch.outcomes
    copies = min(len(calls), MAX_FETCHES_IN_FLIGHT) - 1
    FETCH_WORKERS.post(batch.work, copies)
    try:
        batch.work(0)
        batch.join()
    finally:
        FETCH_WORKERS.returned(copies)
    return batch.outcomes


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
    access is disabled, http(s):// URLs via urllib.  A file:// URL whose
    host is neither empty nor localhost names a file on another machine
    (RFC 8089) and is refused.  `urllib.request` is
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
            if parsed.netloc.lower() not in ("", "localhost"):
                raise FetchError("file URL on a remote host, cannot read %s" % url)
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
    relies on.  Documents and the approximation files next to them are
    fetched through `load_documents` only, and each at most once per store.
    """

    def __init__(self, fetcher: Optional[Fetcher] = None) -> None:
        self.system = EquationSystem()
        self.fetcher = fetcher or FileFetcher()
        self.loaded_documents: Dict[str, bool] = {}
        self.approximations_read: Set[str] = set()  # documents whose file was read
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

    def load_documents(self, urls: Iterable[str], reader: Optional[ApproxReader] = None
                       ) -> List[Tuple[SetName, SetName, bool]]:
        """Fetch as one concurrent batch the documents of urls not yet
        loaded and, with a reader, the approximation file of each URL not
        yet read.  Merge the documents in the order given, then return the
        files' facts in that order and mark the files read.  The first
        failure, documents before files, is raised after everything before
        it is merged."""
        urls = list(dict.fromkeys(urls))
        documents = self.unloaded(urls)
        files = [url for url in urls if url not in self.approximations_read] if reader else []
        outcomes = fetch_concurrently([functools.partial(self.fetcher, url) for url in documents]
                                      + [functools.partial(reader, url) for url in files])
        for url, outcome in zip(documents, outcomes):
            self.merge_document(url, settled(outcome))
        facts: List[Tuple[SetName, SetName, bool]] = []
        for outcome in outcomes[len(documents):]:
            facts.extend(settled(outcome))
        self.approximations_read.update(files)
        return facts

    def lookup(self, name: SetName) -> FlatExpr:
        """The equation for a full set name, fetching its document once if
        needed.  Subsequent lookups of any name from that document hit the
        cache."""
        if name in self.system:
            return self.system[name]
        if name.is_local():
            raise UndefinedNameError("undefined local name %s" % name.full)
        self.load_documents([name.url])
        return self.system[name]
