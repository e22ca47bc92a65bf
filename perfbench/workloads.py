"""The three workloads.  Each is a closed loop with one client thread that
repeats a cycle until the run's time is spent:

- bib-session: a fresh `cli.Session` over the file-served BibDB runs ten
  commands; the session's facts carry over between its commands.
- linorder: a fresh session runs `StrictLinOrder_on_TC(BibDB)`, then
  `SuccessorPairs(StrictLinOrder_on_TC(BibDB))`.
- wdb-equality: (a) publish an approximation file for every document,
  (b) ask equality questions, each on a fresh store with no engine, (c) run
  `BisimulationEngine(use_approximations=True)` to completion and (d) send
  ASK requests to it over one TCP connection.

Every answer is checked after it is timed.  With tracing on, odd cycles run
with spans and even cycles without, so the two can be compared.
"""

from __future__ import annotations

import contextlib
import gc
import random
import shutil
import statistics
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from hypersetdb import approx, bisim, cli, xmlwdb
from hypersetdb.approx import approximation_url, read_approx_file
from hypersetdb.bisim import FactStore, OracleValue
from hypersetdb.cli import Session, SessionConfig
from hypersetdb.engine import BisimulationEngine, OracleClient, serve
from hypersetdb.store import FileFetcher, LatencyFetcher, MemoryFetcher, SessionStore

from . import inputs
from .checks import check_command, check_linear_order
from .timing import Clock
from .tracing import Tracer, installed

WORKLOADS = ("bib-session", "linorder", "wdb-equality")

# Counters that must repeat exactly between cycles of one run, between runs
# of one seed and between PYTHONHASHSEED values.  The productive-round counts
# are left out: derive_round walks a set of name pairs, so they move by a few
# percent with the hash seed.
EXACT = (
    "cli.expanded_chars", "parser.calls", "analysis.calls",
    "evaluator.equations_generated", "store.session_equations",
    "bisim.calls", "bisim.decided_ratio", "bisim.facts",
    "store.fetches", "xmlwdb.bytes", "approx.facts_written", "approx.facts_seeded",
    "engine.bisim_calls", "engine.fetches",
)

SETUP_REPEATS = 10      # set-ups measured before the first cycle
FETCH_LATENCY_MS = 2.0  # per document, wdb-equality
ENGINE_TIMEOUT_S = 60.0


@dataclass
class Sizes:
    linorder_root: str
    wdb: inputs.WdbSizes


# linorder orders the closure of p1 (7 classes, about 2 s per query pair);
# BibDB's 9 classes take about 10 s, too few samples per run for a steady median.
FULL = Sizes("p1", inputs.WdbSizes(chain_names=12, chain_files=4, cycle_files=1,
                                   cycle_names=8, fan_names=16, asks=2000))
TOY = Sizes("p2", inputs.WdbSizes(chain_names=6, chain_files=2, cycle_files=1,
                                  cycle_names=4, fan_names=7, asks=200))


@dataclass
class Run:
    """What one run measured: timing samples from untraced cycles (at
    reference speed, and raw), counters from every cycle, per-layer figures
    from traced cycles."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    raw: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    counters: List[Dict[str, float]] = field(default_factory=list)
    layers: List[Dict[str, float]] = field(default_factory=list)
    shares: List[Dict[str, Dict[str, float]]] = field(default_factory=list)
    tracers: List[Tracer] = field(default_factory=list)

    def check(self, problem: Optional[str], what: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("%s: %s" % (what, problem))

    def guarded(self, what: str, fn: Callable[[], Optional[str]]) -> None:
        """Run one operation and its check; an exception counts as a failure."""
        try:
            problem = fn()
        except Exception as exc:  # every failure is reported, the run goes on
            problem = "%s: %s" % (type(exc).__name__, exc)
        self.check(problem, what)


class Cycle:
    """One cycle's timer.  Samples are times at reference speed (see
    timing.py), raw wall times go to `raw`.  Traced cycles record spans under
    the current operation's request id."""

    def __init__(self, clock: Clock, tracer: Optional[Tracer]) -> None:
        self.clock = clock
        self.tracer = tracer
        self.timed = 0.0
        self.durations: Dict[str, float] = defaultdict(float)
        self.times: Dict[str, List[float]] = defaultdict(list)
        self.raw: Dict[str, List[float]] = defaultdict(list)

    @contextlib.contextmanager
    def op(self, kind: str, sample: Optional[str] = None, scale: float = 1000.0,
           in_cycle: bool = True, probe: bool = True):
        """Time one operation; `sample` names its series, in seconds times
        `scale`; `in_cycle` adds it to the cycle's time."""
        if self.tracer is not None:
            self.tracer.request = kind
        try:
            with self.clock.timed(probe) as timing:
                yield
        finally:
            if self.tracer is not None:
                self.tracer.request = None
            self.durations[kind] += timing.wall
            if in_cycle:
                self.timed += timing.scaled
            if sample is not None:
                self.times[sample].append(timing.scaled * scale)
                self.raw[sample].append(timing.wall * scale)

    def fetcher(self, inner, name: str = "store.fetch"):
        return inner if self.tracer is None else self.tracer.fetcher(inner, name)

    def answer_fn(self, fn):
        tracer = self.tracer
        if tracer is None:
            return fn

        def after(args, value):
            tracer.count("engine.answers")
            if value is OracleValue.UNKNOWN:
                tracer.count("engine.unknown")
        return tracer.wrap("engine.answer", fn, after=after)


class Outcomes:
    """Captures the QueryResult each query renders, for the answer checks."""

    def __init__(self) -> None:
        self.last = None

    @contextlib.contextmanager
    def capturing(self):
        original = cli.postprocess

        def capture(result, *args, **kwargs):
            self.last = result
            return original(result, *args, **kwargs)

        cli.postprocess = capture
        try:
            yield self
        finally:
            cli.postprocess = original


def _local_equations(system) -> int:
    return sum(1 for name in system.equations if name.is_local())


# ---------------------------------------------------------------------------
# Workload bodies: each returns a function running one cycle
# ---------------------------------------------------------------------------

def _new_session(fetcher) -> Session:
    return Session(SessionConfig(allow_network=False), fetcher=fetcher)


def _session_setups(c: Cycle) -> None:
    for _ in range(SETUP_REPEATS):
        with c.op("setup", "setup_s", scale=1.0, in_cycle=False):
            _new_session(FileFetcher(allow_network=False))


def _session_counters(session: Session, fetcher: FileFetcher) -> Dict[str, float]:
    return {"store.fetches": fetcher.fetch_count,
            "bisim.facts": len(session.facts.status),
            "bisim.productive_rounds": session.facts.productive_rounds,
            "store.session_equations": len(session.store.system.equations),
            "evaluator.equations_generated": _local_equations(session.store.system)}


def bib_session(run: Run, rng: random.Random, workdir: Path, sizes: Sizes):
    wdb = inputs.bibdb(rng, workdir)
    commands = inputs.bib_commands(wdb, rng)
    outcomes = Outcomes()

    def cycle(c: Cycle) -> Dict[str, float]:
        fetcher = FileFetcher(allow_network=False)
        with c.op("setup", "setup_s", scale=1.0, in_cycle=False):
            session = _new_session(c.fetcher(fetcher))
        for command in commands:
            outcomes.last = None

            def attempt() -> Optional[str]:
                with c.op("command:" + command.name, "query_ms"):
                    output = session.run_command(command.text)
                return check_command(command.expected, output, outcomes.last,
                                     session.store.system, wdb.system)
            run.guarded(command.name, attempt)
        return _session_counters(session, fetcher)

    return outcomes.capturing(), _session_setups, cycle


def linorder(run: Run, rng: random.Random, workdir: Path, sizes: Sizes):
    wdb = inputs.bibdb(rng, workdir)
    first, second = inputs.linorder_commands(wdb, sizes.linorder_root)
    classes = wdb.classes_reachable(wdb.names[sizes.linorder_root])
    outcomes = Outcomes()

    def cycle(c: Cycle) -> Dict[str, float]:
        fetcher = FileFetcher(allow_network=False)
        with c.op("setup", "setup_s", scale=1.0, in_cycle=False):
            session = _new_session(c.fetcher(fetcher))

        def attempt() -> Optional[str]:
            with c.op("linorder", "linorder_ms"):
                session.run_command(first)
            order = outcomes.last
            with c.op("successor", "successor_ms"):
                session.run_command(second)
            if order is None or order.root is None or outcomes.last is order:
                return "no set result"
            return check_linear_order(order.root, outcomes.last.root,
                                      session.store.system, wdb.system, classes)
        run.guarded("criterion-8 pair", attempt)
        return _session_counters(session, fetcher)

    return outcomes.capturing(), _session_setups, cycle


def _open_oracle(c: Cycle, answer_fn, probe):
    """Server start plus client connect and one ASK, the wdb-equality set-up."""
    with c.op("setup", "setup_s", scale=1.0, in_cycle=False):
        server = serve(answer_fn)
        client = OracleClient(*server.server_address)
        client.ask(probe, probe)
    return server, client


def _close_oracles(pairs) -> None:
    for server, client in pairs:
        client.close()
    stoppers = [threading.Thread(target=server.shutdown) for server, _ in pairs]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join()
    for server, _ in pairs:
        server.server_close()


def wdb_equality(run: Run, rng: random.Random, workdir: Path, sizes: Sizes):
    wdb, roots, questions = inputs.distributed_wdb(rng, sizes.wdb)
    asks = inputs.ask_pairs(wdb, sizes.wdb.asks, rng)
    urls = sorted(wdb.documents)
    probe = questions[0][0]

    def setups(c: Cycle) -> None:
        _close_oracles([_open_oracle(c, lambda x, y: OracleValue.YES, probe)
                        for _ in range(SETUP_REPEATS)])

    def publish(c: Cycle, documents: Dict[str, str]) -> int:
        published = {}
        with c.op("publish", "publish_s", scale=1.0):
            for url in urls:
                system = xmlwdb.load_equations(documents[url], url)
                published[approximation_url(url)] = approx.generate_approximation_file(url, system)
        documents.update(published)
        written = 0
        for url, text in published.items():
            facts = read_approx_file(text)
            written += len(facts)
            wrong = [(x, y) for x, y, value in facts if wdb.equal(x, y) is not value]
            run.check("%d wrong facts" % len(wrong) if wrong else None, "publish " + url)
        return written

    def cycle(c: Cycle) -> Dict[str, float]:
        documents = dict(wdb.documents)
        counters: Dict[str, float] = defaultdict(float)
        counters["approx.facts_written"] = publish(c, documents)

        for x, y, expected in questions:
            fetcher = LatencyFetcher(MemoryFetcher(documents), FETCH_LATENCY_MS)
            store, facts = SessionStore(c.fetcher(fetcher)), FactStore()

            def question() -> Optional[str]:
                with c.op("question", "eq_ms"):
                    answer = bisim.bisimilar(x, y, store, facts)
                return None if answer is expected else "answered %s" % answer
            run.guarded("%s ? %s" % (x.simple, y.simple), question)
            counters["store.fetches"] += fetcher.fetch_count
            counters["bisim.facts"] += len(facts.status)
            counters["bisim.productive_rounds"] += facts.productive_rounds

        engine_fetcher = LatencyFetcher(MemoryFetcher(documents), FETCH_LATENCY_MS)
        engine = BisimulationEngine(roots, c.fetcher(engine_fetcher, "engine.fetch"),
                                    use_approximations=True)
        server, client = _open_oracle(c, c.answer_fn(engine.answer), probe)
        try:
            def derive() -> Optional[str]:
                with c.op("engine", "engine_ready_s", scale=1.0):
                    engine.start()
                    finished = engine.complete.wait(ENGINE_TIMEOUT_S)
                engine.join(0)
                return None if finished else "engine did not finish"
            run.guarded("engine", derive)
            for x, y, expected in asks:
                def ask() -> Optional[str]:
                    with c.op("ask", "ask_us", scale=1e6, probe=False):
                        value = client.ask(x, y)
                    wanted = OracleValue.YES if expected else OracleValue.NO
                    return None if value is wanted else "replied %s" % value.name
                run.guarded("ASK", ask)
        finally:
            _close_oracles([(server, client)])
        counters["bisim.facts"] += len(engine.facts.status)
        counters["bisim.productive_rounds"] += engine.productive_rounds
        counters["engine.productive_rounds"] = engine.productive_rounds
        counters["engine.fetches"] = engine_fetcher.fetch_count
        return dict(counters)

    return contextlib.nullcontext(), setups, cycle


BODIES = {"bib-session": bib_session, "linorder": linorder, "wdb-equality": wdb_equality}


# ---------------------------------------------------------------------------
# The loop and the per-layer figures of a traced cycle
# ---------------------------------------------------------------------------

def _layer_metrics(tracer: Tracer, counters: Dict[str, float],
                   c: Cycle) -> Dict[str, float]:
    names = tracer.by_name()
    counts = tracer.counts

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0.0)

    bisim_calls = get("bisim", "calls")
    answers = sorted(end - start for name, start, end, _, _ in tracer.spans
                     if name == "engine.answer")
    expansions = get("cli", "calls")
    out = {
        "cli.expanded_chars": counts["cli.expanded_chars"] / expansions if expansions else 0,
        "parser.calls": get("parser", "calls"),
        "parser.self_ms": get("parser", "self") * 1e3,
        "analysis.calls": get("analysis", "calls"),
        "analysis.self_ms": get("analysis", "self") * 1e3,
        "library.build_ms": get("library", "total") * 1e3,
        "evaluator.self_ms": get("evaluator", "self") * 1e3,
        "evaluator.render_ms": get("evaluator.render", "total") * 1e3,
        "bisim.calls": bisim_calls,
        "bisim.self_ms": get("bisim", "self") * 1e3,
        "bisim.decided_ratio": counts["bisim.decided"] / bisim_calls if bisim_calls else 0,
        "store.fetch_wait_ms": get("store.fetch", "total") * 1e3,
        "xmlwdb.load_ms": get("xmlwdb", "total") * 1e3,
        "xmlwdb.bytes": counts["xmlwdb.bytes"],
        "approx.generate_ms": get("approx", "total") * 1e3,
        "approx.facts_seeded": counts["approx.facts_seeded"],
        "engine.bisim_calls": counts["engine.bisim_calls"],
        "engine.answer_us": statistics.median(answers) * 1e6 if answers else 0,
        "engine.ask_unknown_ratio": (counts["engine.unknown"] / counts["engine.answers"]
                                     if counts["engine.answers"] else 0),
        "trace.cycle_ms": c.timed * 1e3,
    }
    for key in ("evaluator.equations_generated", "store.session_equations",
                "bisim.facts", "bisim.productive_rounds", "store.fetches",
                "approx.facts_written", "engine.fetches", "engine.productive_rounds"):
        out[key] = counters.get(key, 0)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, sizes: Sizes = FULL) -> Run:
    """Generate the seed's inputs, then repeat cycles for `seconds`."""
    run = Run(workload, seed, trace)
    rng = random.Random("%s/%d" % (workload, seed))
    directory = workdir / ("%s-seed%d" % (workload, seed))
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        context, setups, cycle = BODIES[workload](run, rng, directory, sizes)
        with context:
            _loop(run, setups, cycle, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    _check_drift(run)
    return run


def _check_drift(run: Run) -> None:
    """Exact counters must repeat in every cycle of the run: one check per
    cycle after the first."""
    for rows, what in ((run.counters, "cycle"), (run.layers, "traced cycle")):
        for index, row in enumerate(rows[1:], 1):
            drifted = ["%s %r, first %r" % (key, row[key], rows[0][key])
                       for key in EXACT if key in row and row[key] != rows[0][key]]
            run.check("; ".join(drifted) or None, "exact counters, %s %d" % (what, index))


def _loop(run: Run, setups, cycle, seconds: float) -> None:
    started = perf_counter()
    clock = Clock()
    c = Cycle(clock, None)
    setups(c)
    _keep_samples(run, c)
    longest = 0.0
    index = 0
    while True:
        traced = run.trace and index % 2 == 1
        tracer = Tracer() if traced else None
        c = Cycle(clock, tracer)
        gc.collect()
        began = perf_counter()
        with installed(tracer) if traced else contextlib.nullcontext():
            counters = cycle(c)
        longest = max(longest, perf_counter() - began)
        if traced:
            run.tracers.append(tracer)
            run.layers.append(_layer_metrics(tracer, counters, c))
            run.shares.append(tracer.shares(dict(c.durations)))
        else:
            _keep_samples(run, c)
            run.samples["cycle_ms"].append(c.timed * 1e3)
        run.counters.append(counters)
        index += 1
        enough = index >= (2 if run.trace else 1)
        if enough and perf_counter() - started + longest > seconds:
            break


def _keep_samples(run: Run, c: Cycle) -> None:
    for name, values in c.times.items():
        run.samples[name].extend(values)
    for name, values in c.raw.items():
        run.raw[name].extend(values)
