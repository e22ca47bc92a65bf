"""Spans around calls into the hypersetdb layers, recorded from outside.

Public functions are wrapped where they are looked up (module attributes and
class attributes) and restored afterwards.  Each span records its name,
start, end, parent span and request id.  Parents come from a per-thread
stack, so spans on the engine and server threads nest correctly.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

from hypersetdb import approx, bisim, cli, engine, evaluator, xmlwdb


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []       # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request: Optional[str] = None  # set by the client loop per operation
        self._stacks = threading.local()
        self._lock = threading.Lock()

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """`before(args)` runs before the span starts, `after(args, result)`
        after it ends; both may count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._stacks, "stack", None)
            if stack is None:
                stack = tracer._stacks.stack = []
            if before is not None:
                before(args)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, stack[-1] if stack else None,
                                     tracer.request])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index][1:3] = [start, end]
            if after is not None:
                after(args, result)
            return result

        return traced

    def fetcher(self, inner: Callable[[str], str], name: str) -> Callable[[str], str]:
        """A traced fetcher; approximation files are counted by the facts they
        carry."""
        def after(args, text):
            if args[0].endswith(".approximation.xml"):
                self.count("approx.facts_seeded", text.count("<fact "))
        return self.wrap(name, inner, after=after)

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Span duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span[0], {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += span[2] - span[1]
            entry["self"] += own
        return out

    def shares(self, durations: Dict[str, float]) -> Dict[str, Dict[str, float]]:
        """Per request kind: each layer's self time as a share of the
        operations' wall time in `durations`."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            kind = span[4]
            if kind in durations and durations[kind] > 0:
                layer = out.setdefault(kind, {})
                layer[span[0]] = layer.get(span[0], 0.0) + own / durations[kind]
        return out


def _decided(tracer: Tracer, engine_side: bool):
    """Counts bisimilar calls whose answer the fact store already held."""
    def before(args):
        if engine_side:
            tracer.count("engine.bisim_calls")
        if args[3].decided(args[0], args[1]) is not None:
            tracer.count("bisim.decided")
    return before


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layers' public functions at their lookup points."""
    def chars(args, text):
        tracer.count("cli.expanded_chars", len(text))

    def loaded(args, system):
        tracer.count("xmlwdb.bytes", len(args[0]))

    def written(args, text):
        tracer.count("approx.facts_written", text.count("<fact "))

    points = [
        (cli, "expand_library", "cli", None, chars),
        (cli, "parse", "parser", None, None),
        (cli, "analyze", "analysis", None, None),
        (cli, "postprocess", "evaluator.render", None, None),
        (evaluator, "parse", "parser", None, None),
        (evaluator, "analyze", "analysis", None, None),
        (evaluator, "bisimilar", "bisim", _decided(tracer, False), None),
        (evaluator.Evaluator, "eval_query", "evaluator", None, None),
        (evaluator.Evaluator, "__init__", "library", None, None),
        (engine, "bisimilar", "bisim", _decided(tracer, True), None),
        (bisim, "bisimilar", "bisim", _decided(tracer, False), None),
        (xmlwdb, "load_equations", "xmlwdb", None, loaded),
        (approx, "generate_approximation_file", "approx", None, written),
        (engine.OracleClient, "ask", "ask", None, None),
    ]
    saved = []
    try:
        for owner, attribute, name, before, after in points:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, before, after))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

