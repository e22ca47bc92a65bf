import os
import re
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from hypersetdb.approx import (approximation_url, generate_approximation_file,
                               make_approx_reader)
from hypersetdb.names import (DuplicateEquationError, Element, SetName,
                              UndefinedNameError)
from hypersetdb.store import (FETCH_WORKERS, MAX_FETCHES_IN_FLIGHT, FetchError,
                              FileFetcher, MemoryFetcher, SessionStore,
                              fetch_concurrently, settled)

from hypersetdb.xmlwdb import load_equations

from conftest import bibdb_f1_text, bibdb_f2_text, check_fetch_threads

F1 = "mem://BibDB-f1.xml"
F2 = "mem://BibDB-f2.xml"


@pytest.fixture
def fetcher():
    return MemoryFetcher({F1: bibdb_f1_text(F1, F2), F2: bibdb_f2_text(F1, F2)})


def test_cold_lookup_fetches_whole_document(fetcher):
    store = SessionStore(fetcher)
    expr = store.lookup(SetName(F2, "p3"))
    assert [el.label for el in expr] == ["author", "title"]
    assert fetcher.fetch_count == 1
    # sibling names from the same file are now cached
    store.lookup(SetName(F2, "p1"))
    assert fetcher.fetch_count == 1


def test_lookup_of_undefined_name_in_valid_document(fetcher):
    store = SessionStore(fetcher)
    with pytest.raises(UndefinedNameError):
        store.lookup(SetName(F1, "nonexistent"))


def test_fetch_failure_surfaces(fetcher):
    store = SessionStore(fetcher)
    with pytest.raises(FetchError):
        store.lookup(SetName("mem://missing.xml", "x"))


def test_lookup_never_rewrites_original_equations(fetcher):
    store = SessionStore(fetcher)
    name = SetName(F1, "b2")
    before = list(store.lookup(name))
    store.lookup(SetName(F2, "p1"))
    store.lookup(SetName(F1, "BibDB"))
    assert store.system[name] == before
    with pytest.raises(DuplicateEquationError):
        store.define(name, [])


def test_file_fetcher_network_switch(tmp_path):
    fetcher = FileFetcher(allow_network=False)
    with pytest.raises(FetchError, match="network disabled"):
        fetcher("http://example.org/doc.xml")
    path = tmp_path / "doc.xml"
    path.write_text("hello", encoding="utf-8")
    assert fetcher(path.as_uri()) == "hello"


def test_file_urls_with_quoted_characters(tmp_path):
    path = tmp_path / "a doc 100%.xml"
    path.write_text("quoted", encoding="utf-8")
    assert "%20" in path.as_uri() and "%25" in path.as_uri()
    assert FileFetcher(allow_network=False)(path.as_uri()) == "quoted"


def test_file_urls_on_a_remote_host_are_refused(tmp_path):
    """RFC 8089: a file URL's host other than localhost is another machine,
    even where the same path exists here."""
    path = tmp_path / "doc.xml"
    path.write_text("local", encoding="utf-8")
    fetcher = FileFetcher(allow_network=False)
    assert fetcher("file://localhost" + path.as_posix()) == "local"
    url = "file://example.org" + path.as_posix()
    with pytest.raises(FetchError, match="remote host.*" + re.escape(url)):
        fetcher(url)


def test_loading_the_cli_leaves_urllib_request_out():
    """`urllib.request` costs several megabytes per process; only an http(s)
    fetch imports it."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypersetdb.cli; print('urllib.request' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_fresh_names_never_clash_with_wdb_names(fetcher):
    store = SessionStore(fetcher)
    store.lookup(SetName(F1, "BibDB"))
    fresh = store.fresh("res")
    assert fresh.is_local()
    assert fresh not in store.system
    store.define(fresh, [Element("l", SetName(F1, "b1"))])
    assert store.fresh("res") != fresh


def test_fetch_counters_are_thread_safe(tmp_path):
    """Fetches of one batch run on several threads; no count may be lost."""
    path = tmp_path / "doc.xml"
    path.write_text("text", encoding="utf-8")
    memory = MemoryFetcher({F1: "text"})
    for fetcher, url in ((memory, F1), (FileFetcher(allow_network=False), path.as_uri())):
        def hammer():
            for _ in range(500):
                fetcher(url)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert fetcher.fetch_count == 4000
    assert memory.fetched == [F1] * 4000


def test_fetch_concurrently_keeps_the_order_given():
    def batch(wrap):
        assert fetch_concurrently([wrap(lambda i=i: i * i) for i in range(30)]) == squares

    squares = [i * i for i in range(30)]
    check_fetch_threads(batch)
    caller = threading.get_ident()
    threads = []

    def call(i):
        threads.append(threading.get_ident())
        return i * i

    before = threading.active_count()
    assert fetch_concurrently([lambda: call(0)]) == [0]
    assert threads == [caller]          # a batch of one starts no thread
    assert threading.active_count() == before
    threads.clear()
    assert fetch_concurrently([lambda i=i: call(i) for i in range(30)]) == squares
    assert caller in threads and len(set(threads)) <= MAX_FETCHES_IN_FLIGHT
    assert fetch_concurrently([]) == []


def test_fetch_concurrently_returns_failures_in_their_places():
    def fail():
        raise FetchError("down")

    first, failure = fetch_concurrently([lambda: "text", fail])
    assert settled(first) == "text"
    assert isinstance(failure, FetchError)
    with pytest.raises(FetchError, match="down"):
        settled(failure)


def run_in_threads(targets, timeout=60):
    """Run each target on its own thread; all must end within timeout."""
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)


def settled_pool(timeout=30):
    """Wait until the fetch workers have done every job posted and no more
    than MAX_FETCHES_IN_FLIGHT - 1 are alive; return how many are."""
    deadline = time.monotonic() + timeout
    while True:
        alive = sum(thread.name == "fetch-worker" for thread in threading.enumerate())
        if FETCH_WORKERS.due == 0 and alive == FETCH_WORKERS.workers <= MAX_FETCHES_IN_FLIGHT - 1:
            return alive
        assert time.monotonic() < deadline, (alive, FETCH_WORKERS.workers, FETCH_WORKERS.due)
        time.sleep(0.001)


def test_batches_of_two_threads_run_at_once():
    """An engine thread and a session fetch at the same time: both get
    their outcomes in order, each batch its own workers, and once both are
    done the workers beyond one batch's share exit."""
    results = {}
    peak = [0]

    def batches(name, width):
        def call(i):
            peak[0] = max(peak[0], FETCH_WORKERS.workers)
            time.sleep(0.001)
            return name, i

        def run():
            results[name] = [fetch_concurrently([lambda i=i: call(i) for i in range(width)])
                             for _ in range(20)]
        return run

    settled_pool()
    run_in_threads([batches("engine", 10), batches("session", 3)])
    assert results == {name: [[(name, i) for i in range(width)]] * 20
                       for name, width in (("engine", 10), ("session", 3))}
    assert peak[0] <= (MAX_FETCHES_IN_FLIGHT - 1) + 2
    settled_pool()


class Document:
    pass


def test_a_batch_gets_its_own_workers_while_every_worker_is_blocked():
    """While another thread's batch holds every worker in a slow fetch, a
    batch still has all its calls in flight at once, and the jobs it left
    queued keep none of its outcomes alive."""
    entered = threading.Semaphore(0)
    release = threading.Event()

    def slow(i):
        entered.release()
        assert release.wait(timeout=30)
        return i

    settled_pool()
    blocked = {}
    holder = threading.Thread(target=lambda: blocked.setdefault(
        "outcomes", fetch_concurrently([lambda i=i: slow(i) for i in range(MAX_FETCHES_IN_FLIGHT)])))
    holder.start()
    try:
        for _ in range(MAX_FETCHES_IN_FLIGHT):
            assert entered.acquire(timeout=30)
        assert FETCH_WORKERS.workers == MAX_FETCHES_IN_FLIGHT - 1
        together = threading.Barrier(5, timeout=30)    # broken unless all 5 calls run at once
        caller, threads = threading.current_thread(), []

        def call(i):
            threads.append(threading.current_thread())
            together.wait()
            return i

        assert fetch_concurrently([lambda i=i: call(i) for i in range(5)]) == list(range(5))
        assert caller in threads and len(set(threads)) == 5
        assert FETCH_WORKERS.workers <= MAX_FETCHES_IN_FLIGHT - 1 + 4
        kept = weakref.ref(fetch_concurrently([Document, Document])[0])
        assert kept() is None
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert blocked["outcomes"] == list(range(MAX_FETCHES_IN_FLIGHT))
    assert settled_pool() == MAX_FETCHES_IN_FLIGHT - 1


class Abort(BaseException):
    pass


@pytest.mark.parametrize("raised", [Abort, KeyboardInterrupt, SystemExit])
def test_a_worker_returns_any_exception_in_its_place_and_keeps_serving(raised):
    caller = threading.current_thread()
    workers = []

    def batch(second):
        """Runs `second` as the second call, on a worker: the caller's call
        waits until a worker has entered it."""
        entered = threading.Event()

        def first():
            assert entered.wait(timeout=30)
            return "first"

        def on_a_worker():
            workers.append(threading.current_thread())
            entered.set()
            return second()

        return fetch_concurrently([first, on_a_worker])

    def fail():
        raise raised("down")

    first, failure = batch(fail)
    assert first == "first" and isinstance(failure, raised)
    with pytest.raises(raised, match="down"):
        settled(failure)
    alive = settled_pool()
    assert batch(lambda: "second") == ["first", "second"]
    assert caller not in workers and workers[0].is_alive()
    assert settled_pool() == alive


def test_batches_stay_in_order_under_fast_thread_switching():
    """Four threads run batches of 0 to 12 calls while the interpreter
    switches threads every microsecond: every call runs exactly once, every
    outcome lands in its place, no more workers run than the four threads'
    batches may use, and once they are done the extra workers exit."""
    runs = Counter()
    lock = threading.Lock()
    failures = []
    peak = [0]

    def call(key):
        with lock:
            runs[key] += 1
            peak[0] = max(peak[0], FETCH_WORKERS.workers)
        return key

    def batches(name):
        def run():
            for n in range(40):
                keys = [(name, n, i) for i in range(n % 13)]
                if fetch_concurrently([lambda key=key: call(key) for key in keys]) != keys:
                    failures.append((name, n))
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_in_threads([batches(name) for name in range(4)])
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert runs == Counter({(name, n, i): 1 for name in range(4) for n in range(40)
                            for i in range(n % 13)})
    assert peak[0] <= 4 * (MAX_FETCHES_IN_FLIGHT - 1)
    settled_pool()


def test_a_busy_fetch_worker_does_not_keep_the_process_alive():
    """A worker stuck in a long fetch of a batch that never returns is a
    daemon: the process exits as soon as its main thread ends."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = """if True:
        import threading, time
        from hypersetdb.store import FETCH_WORKERS, fetch_concurrently
        entered = threading.Semaphore(0)
        stuck = [lambda: entered.release() or time.sleep(600)] * 2
        threading.Thread(target=fetch_concurrently, args=(stuck,), daemon=True).start()
        entered.acquire(); entered.acquire()
        print(FETCH_WORKERS.workers)
    """
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"


def test_load_documents_merges_in_order_up_to_the_first_failure(fetcher):
    store = SessionStore(fetcher)
    missing = "mem://missing.xml"
    with pytest.raises(FetchError, match="missing"):
        store.load_documents([F2, missing, F1])
    assert list(store.loaded_documents) == [F2]
    assert SetName(F2, "p1") in store.system and SetName(F1, "b1") not in store.system
    store.load_documents([F1, F2, F1])
    assert list(store.loaded_documents) == [F2, F1]
    assert fetcher.fetched.count(F2) == 1

    def batch(wrap):
        with pytest.raises(FetchError, match="missing"):
            SessionStore(wrap(MemoryFetcher(fetcher.documents))).load_documents([F2, missing, F1])

    check_fetch_threads(batch)


def approximation_reader(fetcher):
    """A reader of the approximation files that fetcher now also serves."""
    for url in (F1, F2):
        fetcher.add(approximation_url(url), generate_approximation_file(
            url, load_equations(fetcher.documents[url], url)))
    return make_approx_reader(fetcher)


def test_load_documents_returns_approximation_facts_in_url_order(fetcher):
    reader = approximation_reader(fetcher)
    expected = reader(F2) + reader(F1)
    assert {a.url for a, _, _ in reader(F1)} == {F1}
    assert {a.url for a, _, _ in reader(F2)} == {F2}
    store = SessionStore(fetcher)
    assert store.load_documents([F2, F1, F2], reader) == expected
    assert list(store.loaded_documents) == [F2, F1]
    assert store.approximations_read == {F1, F2}


def test_load_documents_reads_each_approximation_file_once(fetcher):
    reader = approximation_reader(fetcher)
    first, second = reader(F1), reader(F2)
    fetcher.fetched.clear()
    store = SessionStore(fetcher)
    assert store.load_documents([F1], reader) == first
    assert store.load_documents([F1, F2], reader) == second
    assert store.load_documents([F2, F1], reader) == []
    assert sorted(fetcher.fetched) == sorted(
        [F1, F2, approximation_url(F1), approximation_url(F2)])


def test_load_documents_with_a_reader_fails_before_marking_files_read(fetcher):
    reader = approximation_reader(fetcher)
    store = SessionStore(fetcher)
    missing = "mem://missing.xml"
    with pytest.raises(FetchError, match="missing"):
        store.load_documents([F2, missing, F1], reader)
    assert list(store.loaded_documents) == [F2]
    assert store.approximations_read == set()
    assert store.load_documents([F2, F1], reader) == reader(F2) + reader(F1)
    assert store.approximations_read == {F1, F2}
