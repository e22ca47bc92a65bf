"""Bisimulation: hyperset equality between set names.

Two set names are equal when they are bisimilar: every labelled element of one
has a label-matching bisimilar element in the other, both ways.  Equality over
a (possibly distributed) WDB is decided by deriving positive and negative facts
with lazy document fetching.  One derivation kernel, `derive_round` saturated
over a `FactStore`, serves query-time equality, the background engine and the
per-file approximations (`approx.py`); a brute-force partition refinement over
closed systems serves as the independent test oracle.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .names import Element, EquationSystem, SetName, WdbError
from .store import SessionStore

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
    """

    def __init__(self) -> None:
        self.status: Dict[Pair, Status] = {}
        self.open: Set[Pair] = set()
        self.asked_oracle: Set[Pair] = set()
        self.productive_rounds = 0
        self.lock = threading.Lock()
        self._parent: Dict[SetName, SetName] = {}

    # union-find over positively resolved names
    def _find(self, n: SetName) -> SetName:
        parent = self._parent
        root = n
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(n, n) != root:
            n, parent[n] = parent[n], root
        return root

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
            self.open.add(key)

    def resolve(self, x: SetName, y: SetName, value: bool) -> bool:
        """Record a fact; returns True if anything changed."""
        if x == y:
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
            self.open.discard(key)
            if value:
                rx, ry = self._find(x), self._find(y)
                if rx != ry:
                    self._parent[rx] = ry
        return True

    def unresolved(self) -> List[Pair]:
        return list(self.open)

    def decided(self, x: SetName, y: SetName) -> Optional[bool]:
        status = self.get(x, y)
        if status is Status.YES:
            return True
        if status is Status.NO:
            return False
        return None


# ---------------------------------------------------------------------------
# Derivation rules
# ---------------------------------------------------------------------------

def _negative_applies(xs: List[Element], ys: List[Element],
                      is_no: Callable[[SetName, SetName], bool]) -> bool:
    """One direction of the negative rule: some element of xs has no
    label-matching, not-known-distinct partner in ys."""
    for lx, mx in xs:
        distinguished = True
        for ly, my in ys:
            if lx == ly and not is_no(mx, my):
                distinguished = False
                break
        if distinguished:
            return True
    return False


def _positive_applies(xs: List[Element], ys: List[Element],
                      is_yes: Callable[[SetName, SetName], bool]) -> bool:
    for lx, mx in xs:
        if not any(lx == ly and is_yes(mx, my) for ly, my in ys):
            return False
    for ly, my in ys:
        if not any(lx == ly and is_yes(mx, my) for lx, mx in xs):
            return False
    return True


def derive_round(facts: FactStore, equations: EquationSystem) -> bool:
    """Apply the derivation rules once over the open questions; questions
    whose names lack equations are skipped.  Returns whether anything new was
    resolved.

    This is the one equality kernel: `bisimilar` saturates it over the
    fetched store for query-time equality and for the engine, and `approx`
    saturates it over one document's equations (any mapping from names to
    element lists) for the approximation files."""
    changed = False

    def is_no(u: SetName, v: SetName) -> bool:
        return facts.get(u, v) is Status.NO

    def is_yes(u: SetName, v: SetName) -> bool:
        return facts.get(u, v) is Status.YES

    for x, y in facts.unresolved():
        # transitivity and symmetry come for free from the positive classes
        if facts.same_class(x, y):
            changed |= facts.resolve(x, y, True)
            continue
        if x not in equations or y not in equations:
            continue
        xs, ys = equations[x], equations[y]
        if _negative_applies(xs, ys, is_no) or _negative_applies(ys, xs, is_no):
            changed |= facts.resolve(x, y, False)
        elif _positive_applies(xs, ys, is_yes):
            changed |= facts.resolve(x, y, True)
    if changed:
        facts.productive_rounds += 1
    return changed


# ---------------------------------------------------------------------------
# The lazy distributed algorithm
# ---------------------------------------------------------------------------

@dataclass
class BisimHelpers:
    """Optional aids: an oracle client answering Yes/No/Unknown, and a reader
    returning the simple-approximation facts stored next to a document."""

    oracle: Optional[Callable[[SetName, SetName], OracleValue]] = None
    approx_reader: Optional[Callable[[str], List[Tuple[SetName, SetName, bool]]]] = None


def bisimilar(x: SetName, y: SetName, store: SessionStore, facts: FactStore,
              helpers: Optional[BisimHelpers] = None) -> bool:
    """Decide x = y over the WDB reachable from both names.

    Equations are acquired lazily: a document is downloaded only when some
    unresolved question needs one of its names, and the oracle (when present)
    is consulted before any download.  At exhaustion with nothing left to
    fetch, all remaining questions are postulated positive.
    """
    helpers = helpers or BisimHelpers()
    known = facts.decided(x, y)
    if known is not None:
        return known

    facts.ask_question(x, y)
    members: List[SetName] = [x, y]
    member_set: Set[SetName] = {x, y}
    expanded: Set[SetName] = set()   # names whose children joined members
    paired: Set[SetName] = set()     # names already paired against members
    call_questions: Set[Pair] = {pair_key(x, y)}
    approx_loaded: Set[str] = set()

    def unresolved_here() -> List[Pair]:
        return [p for p in call_questions if facts.status.get(p) is Status.QUESTION]

    while True:
        # acquire equations for names in unresolved questions, asking the
        # oracle first and loading local approximations for new documents
        progress = False
        for u, v in unresolved_here():
            key = pair_key(u, v)
            if helpers.oracle is not None and key not in facts.asked_oracle:
                facts.asked_oracle.add(key)
                answer = helpers.oracle(u, v)
                if answer is not OracleValue.UNKNOWN:
                    facts.resolve(u, v, answer is OracleValue.YES)
                    progress = True
                    continue
            for name in (u, v):
                if name not in store.system:
                    store.lookup(name)
                    progress = True
                if helpers.approx_reader is not None and name.url not in approx_loaded:
                    approx_loaded.add(name.url)
                    for (a, b, value) in helpers.approx_reader(name.url):
                        facts.ask_question(a, b)
                        facts.resolve(a, b, value)
                    progress = True

        # extend the question space: right-hand sides of newly available
        # equations join the participants, and every participant not yet
        # paired gets a question against all the others
        added = False
        for name in list(members):
            if name in expanded or name not in store.system:
                continue
            expanded.add(name)
            for el in store.system[name]:
                if el.member not in member_set:
                    member_set.add(el.member)
                    members.append(el.member)
                    added = True
        for u in list(members):
            if u in paired:
                continue
            paired.add(u)
            for v in members:
                if u == v:
                    continue
                key = pair_key(u, v)
                status = facts.status.get(key)
                if status is None:
                    facts.ask_question(u, v)
                    call_questions.add(key)
                elif status is Status.QUESTION:
                    call_questions.add(key)

        # saturate with the derivation rules
        while derive_round(facts, store.system):
            pass

        resolved = facts.decided(x, y)
        if resolved is not None:
            return resolved

        pending_fetch = [name for p in unresolved_here() for name in p
                         if name not in store.system]
        if not pending_fetch and not added and not progress:
            # full transitive closure explored: postulate the rest positive
            for u, v in unresolved_here():
                facts.resolve(u, v, True)
            while derive_round(facts, store.system):
                pass
            return facts.decided(x, y) is True


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
