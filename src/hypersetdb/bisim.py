"""Bisimulation: hyperset equality between set names.

Two set names are equal when they are bisimilar: every labelled element of one
has a label-matching bisimilar element in the other, both ways.  Equality is
decided by two kernels, one job each.  `saturate` is the No prover: it
derives negative facts over a `FactStore` with lazy document fetching, and
serves query-time equality (`bisimilar`) and the upper approximation
(`approx.py`).  Its question space is demand-driven: a question asks the
partner pairs its negative rule reads, and nothing else, so a query examines
only the pairs reachable from it (on-the-fly checking, Fernandez & Mounier,
CAV 1991), and a question is re-examined only when something it depends on
has changed, through a dependency index kept on the `FactStore` for the
whole session.  `stable_blocks` computes the coarsest stable partition of a
finite graph by partition refinement, the greatest fixpoint a Yes on a
cycle needs; it serves the class ids of cyclic components (`classids`),
which the evaluator and the engine share, the merge at the end of a lazy
`bisimilar` call and the lower approximation.  Every other Yes comes from
transitivity, the oracle or an approximation file.  A brute-force partition
refinement over closed systems serves as the independent test oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping,
                    Optional, Set, Tuple)

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
    return (x, y) if x <= y else (y, x)


class FactStore:
    """Workspace of bisimulation questions and resolved facts for a session.

    Resolution is monotone: once a pair is Yes or No it never changes, and a
    conflicting update is a hard internal error.  Positive facts additionally
    feed a union-find so transitivity closes cheaply.

    The store also holds the dependency index of `saturate`, so the index
    lasts as long as the facts: the questions still to examine, the pairs
    each open question reads and the open questions reading each pair, and
    the questions waiting for a name's equation.  Equations are write-once,
    so what a question reads never changes once both its equations exist.
    """

    def __init__(self) -> None:
        self.status: Dict[Pair, Status] = {}
        self.asked_oracle: Set[Pair] = set()
        self.approx_loaded: Set[str] = set()   # documents whose file was read
        self.productive_rounds = 0
        self.pending: List[Pair] = []                  # to examine
        self.reads: Dict[Pair, Tuple[Pair, ...]] = {}  # open question -> pairs it reads
        self.watchers: Dict[Pair, List[Pair]] = {}     # pair -> questions reading it
        self.blocked: Dict[SetName, List[Pair]] = {}   # name -> questions needing it
        self._parent: Dict[SetName, SetName] = {}

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
        rx, ry = self._find(x), self._find(y)
        if rx != ry:
            self._parent[rx] = ry

    def same_class(self, x: SetName, y: SetName) -> bool:
        return self._find(x) == self._find(y)

    def get(self, x: SetName, y: SetName) -> Optional[Status]:
        if x == y:
            return Status.YES
        return self.status.get(pair_key(x, y))

    def ask_question(self, x: SetName, y: SetName) -> None:
        if x == y:
            return
        key = pair_key(x, y)
        if key not in self.status:
            self.status[key] = Status.QUESTION
            self.pending.append(key)

    def resolve(self, x: SetName, y: SetName, value: bool) -> bool:
        """Record a fact and, for a No, queue the questions that read it;
        returns True if anything changed.  A Yes wakes no reader, since only
        a No can make a reader's negative rule fire."""
        if x == y:
            if not value:
                raise BisimulationError("refusing x != x for %s" % x.full)
            return False
        key = pair_key(x, y)
        new = Status.YES if value else Status.NO
        old = self.status.get(key)
        if old in (Status.YES, Status.NO):
            if old is not new:
                raise BisimulationError(
                    "conflicting bisimulation facts for %s ? %s" % (x.full, y.full))
            return False
        self.status[key] = new
        self.reads.pop(key, None)
        readers = self.watchers.pop(key, None)
        if value:
            self._union(x, y)
        elif readers:
            self.pending.extend(readers)
        return True

    def decided(self, x: SetName, y: SetName) -> Optional[bool]:
        """The fact about x ? y, a pair that holds by transitivity included;
        None while it is unknown."""
        status = self.get(x, y)
        if status is Status.YES:
            return True
        if status is Status.NO:
            return False
        parent = self._parent
        if (x in parent or y in parent) and self.same_class(x, y):
            return True
        return None


# ---------------------------------------------------------------------------
# The No prover
# ---------------------------------------------------------------------------

Equations = Mapping[SetName, List[Element]]


def _one_way(xs: List[Element], ys: List[Element], get,
             reads: Optional[Set[Pair]]) -> bool:
    """The negative rule in one direction: whether some element of xs has no
    label-matching partner in ys that is not known distinct.  The open
    partner pairs of each element without an identical or Yes partner go
    into reads: only a No among them can make the rule fire later."""
    for lx, mx in xs:
        partners = []
        for ly, my in ys:
            if lx != ly:
                continue
            if mx == my:
                break
            pair = (mx, my) if mx < my else (my, mx)
            status = get(pair)
            if status is Status.YES:
                break
            if status is not Status.NO:
                partners.append(pair)
        else:
            if not partners:
                return True
            if reads is not None:
                reads.update(partners)
    return False


def _examine(facts: FactStore, key: Pair, equations: Equations) -> bool:
    """Apply the negative rule to one open question; returns whether it was
    resolved.  A question left open waits for the equation it lacks or, the
    first time it is looked at with both equations, asks the pairs it reads
    and is indexed under them."""
    x, y = key
    # a Yes by transitivity reads nothing; names outside the union-find are
    # singleton classes
    parent = facts._parent
    if (x in parent or y in parent) and facts.same_class(x, y):
        return facts.resolve(x, y, True)
    xs, ys = equations.get(x), equations.get(y)
    if xs is None or ys is None:
        facts.blocked.setdefault(x if xs is None else y, []).append(key)
        return False
    get = facts.status.get
    # reads are taken both ways: x = {a:u} and y = {a:u, a:w} differ only if
    # w differs from u, which just the backward direction reads
    reads: Optional[Set[Pair]] = None if key in facts.reads else set()
    if _one_way(xs, ys, get, reads) or _one_way(ys, xs, get, reads):
        return facts.resolve(x, y, False)
    if reads is not None:
        facts.reads[key] = ordered = tuple(sorted(reads))
        for pair in ordered:
            if pair not in facts.status:
                facts.status[pair] = Status.QUESTION
                facts.pending.append(pair)
            facts.watchers.setdefault(pair, []).append(key)
    return False


def saturate(facts: FactStore, equations: Equations) -> bool:
    """Apply the negative rule until nothing changes; questions whose names
    lack equations wait until the equations exist.  Returns whether anything
    was resolved.

    This is the on-the-fly No prover (Fernandez & Mounier, CAV 1991):
    `bisimilar` saturates over the fetched store for query-time equality,
    and `approx` over one document's equations (any mapping from names to
    element lists) for the upper approximation.  Its only Yes is by
    transitivity.  A positive rule could close only well-founded pairs,
    never a Yes on a cycle, which is a greatest fixpoint: every other Yes
    comes from `stable_blocks` or from the helpers.  A question is examined
    only when it is new, when an equation it lacked has arrived, or when a
    pair it reads has been resolved No; each resolution queues just those
    dependents (Liu & Smolka, ICALP 1998).  An open question asks the pairs
    it reads, so the fixpoint is the same as sweeping all open questions,
    each asking its reads, until no sweep changes anything."""
    status, pending = facts.status, facts.pending
    for name in [n for n in facts.blocked if n in equations]:
        pending.extend(facts.blocked.pop(name))
    resolved = False
    while pending:
        key = pending.pop()
        if status[key] is Status.QUESTION:
            resolved |= _examine(facts, key, equations)
    if resolved:
        facts.productive_rounds += 1
    return resolved


# ---------------------------------------------------------------------------
# The refinement kernel
# ---------------------------------------------------------------------------

def stable_blocks(names: Iterable[SetName], equations: Equations,
                  outside: Optional[Callable[[SetName], Hashable]] = None
                  ) -> Dict[SetName, int]:
    """The coarsest partition of names stable under their equations, as a
    block number per name: two names share a block exactly when their
    elements match label for label into shared blocks.  A member that is not
    in names is keyed by outside(member); without outside, names must be
    closed under their members.  Blocks are numbered in the sorted order of
    their first names, so nothing depends on the hash seed.

    Partition refinement by signatures (Paige & Tarjan, SIAM J. Comput.
    16(6), 1987): a name's signature is the set of (label, block of member)
    of its elements, and a block splits by signature.  Only the predecessors
    of names whose block changed are signed again, and the largest part of a
    split keeps the block's id, so a name changes block at most log n times
    and a straight chain of n names costs O(n) signatures."""
    order = sorted(set(names))
    block = dict.fromkeys(order, 0)
    members: Dict[int, Set[SetName]] = {0: set(order)}
    # the signature the names of a block share, unless they are to be signed
    shared: Dict[int, Optional[FrozenSet]] = {0: None}
    predecessors: Dict[SetName, List[SetName]] = {}
    for n in order:
        for el in equations[n]:
            if el.member in block:
                predecessors.setdefault(el.member, []).append(n)

    def signature(n: SetName) -> FrozenSet:
        return frozenset((el.label, True, block[el.member]) if el.member in block
                         else (el.label, False, outside(el.member))  # type: ignore[misc]
                         for el in equations[n])

    dirty: Dict[SetName, None] = dict.fromkeys(order)
    while dirty:
        touched: Dict[int, Dict[FrozenSet, List[SetName]]] = {}
        for n in dirty:
            touched.setdefault(block[n], {}).setdefault(signature(n), []).append(n)
        moved: List[SetName] = []
        for b, parts in touched.items():
            parts.pop(shared[b], None)     # unchanged: they stay with the rest
            if not parts:
                continue
            stay = len(members[b]) - sum(len(part) for part in parts.values())
            largest = max(parts, key=lambda sig: len(parts[sig]))
            if len(parts[largest]) > stay:
                # the largest part keeps b; the names that stay move out
                keep = parts.pop(largest)
                rest = members[b].difference(keep)
                for part in parts.values():
                    rest.difference_update(part)
                if rest:
                    parts[shared[b]] = list(rest)   # type: ignore[index]
                members[b] = set(keep)
                shared[b] = largest
            for sig, part in parts.items():
                new = len(shared)
                shared[new] = sig
                members[new] = set(part)
                members[b].difference_update(part)
                for n in part:
                    block[n] = new
                moved.extend(part)
        dirty = dict.fromkeys(p for n in moved for p in predecessors.get(n, ()))
    number: Dict[int, int] = {}
    return {n: number.setdefault(block[n], len(number)) for n in order}


# ---------------------------------------------------------------------------
# The lazy distributed algorithm
# ---------------------------------------------------------------------------

@dataclass
class BisimHelpers:
    """Optional aids: an oracle answering a list of pairs Yes/No/Unknown, in
    order, and a reader of the approximation facts stored next to a document."""

    oracle: Optional[Callable[[List[Pair]], List[OracleValue]]] = None
    approx_reader: Optional[Callable[[str], List[Tuple[SetName, SetName, bool]]]] = None


def _reachable(facts: FactStore, key: Pair) -> List[Pair]:
    """The open questions reachable from key through the pairs open
    questions read, depth first in the sorted order of the reads; a question
    whose names share a class holds by transitivity and is not open."""
    reads = facts.reads
    seen, order, stack = {key}, [], [key]
    while stack:
        question = stack.pop()
        if facts.decided(*question) is not None:
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
    under their equations puts together; a member outside names counts as its
    positive class.  Any two names of one block are bisimilar, since the
    blocks and the Yes facts form a bisimulation."""
    first: Dict[int, SetName] = {}
    for n, b in stable_blocks(names, equations, facts._find).items():
        representative = first.setdefault(b, n)
        if representative is not n:
            facts.resolve(representative, n, True)


def bisimilar(x: SetName, y: SetName, store: SessionStore, facts: FactStore,
              helpers: Optional[BisimHelpers] = None) -> bool:
    """Decide x = y over the WDB reachable from both names.

    The question space is demand-driven: x ? y, and every pair that an open
    question's negative rule reads, transitively.  It grows in rounds.  A
    round asks the oracle (when present) about the open questions reachable
    from x ? y not asked yet, in one exchange, then fetches, as one
    concurrent batch, the documents and approximation files of the names in
    those questions that lack an equation or a file, and derives No facts.
    Each approximation file is read once per fact store.  At exhaustion,
    when a round finds nothing to ask or fetch, the reachable open questions
    are postulated positive, and the names in them are merged as far as
    refining them into stable classes allows.  The oracle is not asked in a
    round with nothing to fetch: the postulate or the derivation then
    decides without a fetch, so an answer cannot save one.
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

    def lacking(questions: List[Pair]) -> List[SetName]:
        return sorted({u for key in questions for u in key
                       if u not in equations
                       or (reader is not None and u.url not in facts.approx_loaded)})

    saturated = False
    while True:
        # the oracle first, about each reachable question not yet asked
        questions = _reachable(facts, query)
        order = lacking(questions)
        progress = False
        if oracle is not None and order:
            # one exchange: resolving a pair changes no other pair's status
            asked = [key for key in questions
                     if key not in facts.asked_oracle and status[key] is Status.QUESTION]
            facts.asked_oracle.update(asked)
            for (u, v), answer in zip(asked, oracle(asked) if asked else ()):
                if answer is not OracleValue.UNKNOWN:
                    facts.resolve(u, v, answer is OracleValue.YES)
                    progress = True
            if progress:
                questions = _reachable(facts, query)
                order = lacking(questions)

        # then equations and approximation files for the names in them: the
        # round's documents and files are fetched as one concurrent batch,
        # then applied in name order as if fetched one by one
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
