"""Bisimulation: hyperset equality between set names.

Two set names are equal when they are bisimilar: every labelled element of one
has a label-matching bisimilar element in the other, both ways.  Equality over
a (possibly distributed) WDB is decided by deriving positive and negative facts
with lazy document fetching.  One derivation kernel, `saturate` over a
`FactStore`, serves query-time equality, the background engine and the
per-file approximations (`approx.py`).  The question space is demand-driven:
a question asks the partner pairs its rules read, and nothing else, so a
query examines only the pairs reachable from it (on-the-fly checking,
Fernandez & Mounier, CAV 1991).  The kernel re-examines a question only when
something it depends on has changed, through a dependency index kept on the
`FactStore` for the whole session.  A brute-force partition refinement over
closed systems serves as the independent test oracle.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from functools import partial
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional, Set,
                    Tuple)

from .names import Element, EquationSystem, SetName, WdbError
from .store import SessionStore, fetch_concurrently, settled

Pair = Tuple[SetName, SetName]


class Status(enum.Enum):
    QUESTION = "?"
    YES = "yes"
    NO = "no"


class OracleValue(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class BisimulationError(WdbError):
    pass


def pair_key(x: SetName, y: SetName) -> Pair:
    return (x, y) if x.full <= y.full else (y, x)


class FactStore:
    """Workspace of bisimulation questions and resolved facts for a session.

    Resolution is monotone: once a pair is Yes or No it never changes, and a
    conflicting update is a hard internal error.  Positive facts additionally
    feed a union-find so transitivity closes cheaply.

    The store also holds the dependency index of `saturate`, so the index
    lasts as long as the facts: the questions still to examine, the pairs
    each open question reads and the open questions reading each pair, the
    questions waiting for a name's equation, and the open questions incident
    to each name.  Equations are write-once, so what a question reads never
    changes once both its equations exist.
    """

    def __init__(self) -> None:
        self.status: Dict[Pair, Status] = {}
        self.asked_oracle: Set[Pair] = set()
        self.approx_loaded: Set[str] = set()   # documents whose file was read
        self.productive_rounds = 0
        self.lock = threading.Lock()
        self.pending: List[Pair] = []                  # new, not yet examined
        self.woken: List[Pair] = []                    # indexed, to re-examine
        self.reads: Dict[Pair, Tuple[Pair, ...]] = {}  # open question -> pairs it reads
        self.watchers: Dict[Pair, List[Pair]] = {}     # pair -> questions reading it
        self.blocked: Dict[SetName, List[Pair]] = {}   # name -> questions needing it
        self.incident: Dict[SetName, List[Pair]] = {}  # name -> indexed questions
        self._parent: Dict[SetName, SetName] = {}
        self._members: Dict[SetName, List[SetName]] = {}  # root -> its class

    # union-find over positively resolved names
    def _find(self, n: SetName) -> SetName:
        parent = self._parent
        root = n
        while root in parent:
            root = parent[root]
        while n in parent:
            parent[n], n = root, parent[n]
        return root

    def _union(self, x: SetName, y: SetName) -> None:
        """Merge two classes.  The open questions between them now hold by
        transitivity: they are re-queued, found from the smaller class."""
        small, large = self._find(x), self._find(y)
        if small.full == large.full:
            return
        if len(self._members.get(small, ())) > len(self._members.get(large, ())):
            small, large = large, small
        names = self._members.pop(small, None) or [small]
        for u in names:
            questions = [q for q in self.incident.pop(u, ())
                         if self.status[q] is Status.QUESTION]
            if questions:
                self.incident[u] = questions
            for q in questions:
                other = q[1] if q[0].full == u.full else q[0]
                if self._find(other).full == large.full:
                    self.woken.append(q)
        self._parent[small] = large
        self._members.setdefault(large, [large]).extend(names)

    def same_class(self, x: SetName, y: SetName) -> bool:
        return self._find(x).full == self._find(y).full

    def get(self, x: SetName, y: SetName) -> Optional[Status]:
        if x == y:
            return Status.YES
        return self.status.get(pair_key(x, y))

    def ask_question(self, x: SetName, y: SetName) -> None:
        if x.full == y.full:
            return
        key = pair_key(x, y)
        if key not in self.status:
            self.status[key] = Status.QUESTION
            self.pending.append(key)

    def resolve(self, x: SetName, y: SetName, value: bool) -> bool:
        """Record a fact and queue the questions that read it; returns True
        if anything changed."""
        if x.full == y.full:
            if not value:
                raise BisimulationError("refusing x != x for %s" % x.full)
            return False
        key = pair_key(x, y)
        new = Status.YES if value else Status.NO
        with self.lock:
            old = self.status.get(key)
            if old in (Status.YES, Status.NO):
                if old is not new:
                    raise BisimulationError(
                        "conflicting bisimulation facts for %s ? %s" % (x.full, y.full))
                return False
            self.status[key] = new
            self.reads.pop(key, None)
            readers = self.watchers.pop(key, None)
            if readers:
                self.woken.extend(readers)
            if value:
                self._union(x, y)
        return True

    def decided(self, x: SetName, y: SetName) -> Optional[bool]:
        """The fact about x ? y, a pair that holds by transitivity included;
        None while it is unknown.  The engine's ASK service calls this from
        other threads, so it finds the classes without compressing paths."""
        status = self.get(x, y)
        if status is Status.YES:
            return True
        if status is Status.NO:
            return False
        parent = self._parent
        if x in parent or y in parent:
            while x in parent:
                x = parent[x]
            while y in parent:
                y = parent[y]
            if x.full == y.full:
                return True
        return None


# ---------------------------------------------------------------------------
# The derivation kernel
# ---------------------------------------------------------------------------

Equations = Mapping[SetName, List[Element]]

# How much of its index an examined question still needs if it stays open.
_NEW, _UNBLOCKED, _INDEXED = 0, 1, 2


def _one_way(xs: List[Element], ys: List[Element], get,
             reads: Optional[Set[Pair]]) -> Optional[bool]:
    """One direction of the rules: False when some element of xs has no
    label-matching partner in ys that is not known distinct (the negative
    rule), True when every element has a Yes partner (half of the positive
    rule), None otherwise.  Unresolved partner pairs go into reads."""
    matched_all = True
    for lx, mx in xs:
        distinguished, matched = True, False
        for ly, my in ys:
            if lx != ly:
                continue
            if mx.full == my.full:
                distinguished = False
                matched = True
                continue
            pair = (mx, my) if mx.full < my.full else (my, mx)
            status = get(pair)
            if status is Status.NO:
                continue
            distinguished = False
            if status is Status.YES:
                matched = True
            elif reads is not None:
                reads.add(pair)
        if distinguished:
            return False
        if not matched:
            matched_all = False
    return True if matched_all else None


def _examine(facts: FactStore, key: Pair, equations: Equations, stage: int) -> bool:
    """Apply the derivation rules to one open question; returns whether it
    was resolved.  A question still open is indexed as far as `stage` says:
    under its names the first time, then under the name whose equation is
    missing or under the pairs it reads, which it asks."""
    x, y = key
    # transitivity and symmetry come for free from the positive classes;
    # names outside the union-find are singleton classes
    parent = facts._parent
    if (x in parent or y in parent) and facts.same_class(x, y):
        return facts.resolve(x, y, True)
    xs, ys = equations.get(x), equations.get(y)
    missing = x if xs is None else y if ys is None else None
    if missing is None:
        get = facts.status.get
        reads: Optional[Set[Pair]] = set() if stage != _INDEXED else None
        forth = _one_way(xs, ys, get, reads)
        back = _one_way(ys, xs, get, None) if forth is not False else False
        if forth is False or back is False:
            return facts.resolve(x, y, False)
        if forth and back:
            return facts.resolve(x, y, True)
    if stage == _NEW:
        facts.incident.setdefault(x, []).append(key)
        facts.incident.setdefault(y, []).append(key)
    if stage != _INDEXED:
        if missing is not None:
            facts.blocked.setdefault(missing, []).append(key)
        else:
            facts.reads[key] = tuple(sorted(reads))
            for pair in reads:
                if pair not in facts.status:
                    facts.status[pair] = Status.QUESTION
                    facts.pending.append(pair)
                facts.watchers.setdefault(pair, []).append(key)
    return False


def saturate(facts: FactStore, equations: Equations) -> bool:
    """Apply the derivation rules until nothing changes; questions whose
    names lack equations wait until the equations exist.  Returns whether
    anything was resolved.

    This is the one equality kernel: `bisimilar` saturates over the fetched
    store for query-time equality and for the engine, and `approx` over one
    document's equations (any mapping from names to element lists) for the
    approximation files.  A question is examined only when it is new, when
    an equation it lacked has arrived, or when a pair it reads or its two
    names' classes have been resolved; each resolution queues just those
    dependents (Liu & Smolka, ICALP 1998).  An open question asks the pairs
    it reads, so the fixpoint is the same as sweeping all open questions,
    each asking its reads, until no sweep changes anything."""
    status = facts.status
    unblocked: List[Pair] = []
    for name in [n for n in facts.blocked if n in equations]:
        unblocked.extend(facts.blocked.pop(name))
    resolved = False
    queues = ((facts.woken, _INDEXED), (unblocked, _UNBLOCKED), (facts.pending, _NEW))
    while facts.woken or unblocked or facts.pending:
        for queue, stage in queues:
            while queue:
                key = queue.pop()
                if status[key] is Status.QUESTION:
                    resolved |= _examine(facts, key, equations, stage)
    if resolved:
        facts.productive_rounds += 1
    return resolved


# ---------------------------------------------------------------------------
# The lazy distributed algorithm
# ---------------------------------------------------------------------------

@dataclass
class BisimHelpers:
    """Optional aids: an oracle client answering Yes/No/Unknown, and a reader
    returning the simple-approximation facts stored next to a document."""

    oracle: Optional[Callable[[SetName, SetName], OracleValue]] = None
    approx_reader: Optional[Callable[[str], List[Tuple[SetName, SetName, bool]]]] = None


def _reachable(facts: FactStore, key: Pair) -> List[Pair]:
    """The open questions reachable from key through the pairs open
    questions read, depth first in the sorted order of the reads."""
    status, reads = facts.status, facts.reads
    seen, order, stack = {key}, [], [key]
    while stack:
        question = stack.pop()
        if status[question] is not Status.QUESTION:
            continue
        order.append(question)
        for pair in reversed(reads.get(question, ())):
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return order


def _merge_stable_classes(facts: FactStore, equations: Equations,
                          names: List[SetName]) -> None:
    """Merge the classes of names that the coarsest partition of names stable
    under their equations puts together, found by naive refinement; a member
    outside names counts as its positive class.  Any two names of one block
    are bisimilar, since the blocks and the Yes facts form a bisimulation."""
    inside = set(names)
    block = dict.fromkeys(names, 0)
    count = 1
    while True:
        signatures: Dict[object, int] = {}
        refined = {}
        for n in names:
            signature = (block[n], frozenset(
                (el.label, block[el.member] if el.member in inside
                 else facts._find(el.member)) for el in equations[n]))
            refined[n] = signatures.setdefault(signature, len(signatures))
        if len(signatures) == count:
            break
        block, count = refined, len(signatures)
    first: Dict[int, SetName] = {}
    for n in names:
        representative = first.setdefault(block[n], n)
        if representative is not n:
            facts.resolve(representative, n, True)


def bisimilar(x: SetName, y: SetName, store: SessionStore, facts: FactStore,
              helpers: Optional[BisimHelpers] = None) -> bool:
    """Decide x = y over the WDB reachable from both names.

    The question space is demand-driven: x ? y, and every pair that an open
    question's rules read, transitively.  It grows in rounds.  A round asks
    the oracle (when present) about each open question reachable from
    x ? y, then fetches, as one concurrent batch, the documents and
    approximation files of the names in those questions that lack an
    equation or a file, and then derives facts.  Each approximation file is
    read once per fact store.  At exhaustion, when a round finds nothing to
    ask or fetch, the reachable open questions are postulated positive, and
    the names in them are merged as far as refining them into stable
    classes allows.
    """
    helpers = helpers or BisimHelpers()
    known = facts.decided(x, y)
    if known is not None:
        return known

    equations = store.system.equations
    status = facts.status
    oracle, reader = helpers.oracle, helpers.approx_reader
    query = pair_key(x, y)
    facts.ask_question(x, y)
    saturated = False
    while True:
        # the oracle first, about each reachable question not yet asked
        questions = _reachable(facts, query)
        progress = False
        if oracle is not None:
            for key in questions:
                if key not in facts.asked_oracle and status[key] is Status.QUESTION:
                    facts.asked_oracle.add(key)
                    answer = oracle(*key)
                    if answer is not OracleValue.UNKNOWN:
                        facts.resolve(key[0], key[1], answer is OracleValue.YES)
                        progress = True
            if progress:
                questions = _reachable(facts, query)

        # then equations and approximation files for the names in them: the
        # round's documents and files are fetched as one concurrent batch,
        # then applied in name order as if fetched one by one
        order = sorted({u for key in questions for u in key
                        if u not in equations
                        or (reader is not None and u.url not in facts.approx_loaded)})
        wanted = {}
        for name in order:
            if name not in equations and store.unloaded([name.url]):
                wanted.setdefault(("document", name.url), partial(store.fetcher, name.url))
            if reader is not None and name.url not in facts.approx_loaded:
                wanted.setdefault(("approximation", name.url), partial(reader, name.url))
        fetched = dict(zip(wanted, fetch_concurrently(list(wanted.values()))))
        for name in order:
            if name not in equations:
                key = ("document", name.url)
                if key in fetched:
                    store.merge_document(name.url, settled(fetched.pop(key)))
                store.lookup(name)
                progress = True
            if reader is not None and name.url not in facts.approx_loaded:
                seeded = settled(fetched.pop(("approximation", name.url)))
                facts.approx_loaded.add(name.url)
                for (a, b, value) in seeded:
                    facts.ask_question(a, b)
                    facts.resolve(a, b, value)
                progress = True

        if saturated and not progress:
            # nothing left to ask or fetch: every reachable open question
            # has its equations, and with the Yes facts they form a
            # bisimulation
            for u, v in questions:
                facts.resolve(u, v, True)
            _merge_stable_classes(facts, equations,
                                  sorted({u for key in questions for u in key}))
            saturate(facts, equations)
            return facts.decided(x, y) is True

        saturate(facts, equations)
        saturated = True
        resolved = facts.decided(x, y)
        if resolved is not None:
            return resolved


# ---------------------------------------------------------------------------
# Brute-force oracle: global partition refinement on a closed system
# ---------------------------------------------------------------------------

def naive_bisimulation(system: EquationSystem) -> Dict[SetName, int]:
    """Greatest-fixpoint bisimulation on a closed equation system by iterative
    partition refinement; returns a block id per name (equal id = bisimilar)."""
    names = list(system.equations)
    defined = set(names)
    for expr in system.equations.values():
        for el in expr:
            if el.member not in defined:
                raise BisimulationError(
                    "naive_bisimulation needs a closed system; %s is foreign"
                    % el.member.full)

    block: Dict[SetName, int] = {n: 0 for n in names}
    while True:
        mapping: Dict[Tuple[int, FrozenSet[Tuple[str, int]]], int] = {}
        new_block: Dict[SetName, int] = {}
        for n in names:
            signature = frozenset((el.label, block[el.member])
                                  for el in system.equations[n])
            key = (block[n], signature)
            if key not in mapping:
                mapping[key] = len(mapping)
            new_block[n] = mapping[key]
        if new_block == block:
            return block
        block = new_block


def naive_equal(system: EquationSystem, x: SetName, y: SetName) -> bool:
    blocks = naive_bisimulation(system)
    return blocks[x] == blocks[y]


def strongly_extensional(system: EquationSystem) -> bool:
    blocks = naive_bisimulation(system)
    return len(set(blocks.values())) == len(blocks)
