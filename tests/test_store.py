import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from hypersetdb.names import (DuplicateEquationError, Element, SetName,
                              UndefinedNameError)
from hypersetdb.store import (MAX_FETCHES_IN_FLIGHT, FetchError, FileFetcher,
                              MemoryFetcher, SessionStore, fetch_concurrently,
                              settled)

from conftest import bibdb_f1_text, bibdb_f2_text

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
    caller = threading.get_ident()
    threads = []

    def call(i):
        threads.append(threading.get_ident())
        return i * i

    before = threading.active_count()
    assert fetch_concurrently([lambda: call(0)]) == [0]
    assert threads == [caller]          # a batch of one starts no thread
    threads.clear()
    outcomes = fetch_concurrently([lambda i=i: call(i) for i in range(30)])
    assert outcomes == [i * i for i in range(30)]
    assert caller in threads and len(set(threads)) <= MAX_FETCHES_IN_FLIGHT
    assert threading.active_count() == before
    assert fetch_concurrently([]) == []


def test_fetch_concurrently_returns_failures_in_their_places():
    def fail():
        raise FetchError("down")

    first, failure = fetch_concurrently([lambda: "text", fail])
    assert settled(first) == "text"
    assert isinstance(failure, FetchError)
    with pytest.raises(FetchError, match="down"):
        settled(failure)


def test_load_documents_merges_in_order_up_to_the_first_failure(fetcher):
    store = SessionStore(fetcher)
    missing = "mem://missing.xml"
    before = threading.active_count()
    with pytest.raises(FetchError, match="missing"):
        store.load_documents([F2, missing, F1])
    assert threading.active_count() == before
    assert list(store.loaded_documents) == [F2]
    assert SetName(F2, "p1") in store.system and SetName(F1, "b1") not in store.system
    store.load_documents([F1, F2, F1])
    assert list(store.loaded_documents) == [F2, F1]
    assert fetcher.fetched.count(F2) == 1
