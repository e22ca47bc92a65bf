"""Core data model: set names, labelled elements, flat bracket expressions,
equation systems, fresh-name generation and the strongly connected
components of the name graph.

A web-like database (WDB) is a system of flat set equations

    name = { label1:member1, ..., labelN:memberN }

where every name is a *full* set name (document URL + "#" + simple name).
A `SetName` is an immutable (full, url, simple) tuple, hashed and compared
natively, ordered by its rendered form and never equal to a string.
Element order and repetition are kept for I/O fidelity but carry no meaning:
all semantic operations must be invariant under permutation and duplication.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple, TypeVar)

# Reserved document URL for names generated during a query session.  No real
# WDB document can live under this URL, so generated names never clash with
# stored ones.
LOCAL_URL = "local://session"

# The empty label is stored uniformly as the literal string "null".
NULL_LABEL = "null"

IDENTIFIER_RE = re.compile(r"[A-Za-z0-9_\-]+\Z")


class WdbError(Exception):
    """Base error for the WDB model."""


class NameError_(WdbError):
    """Malformed or unresolvable set name."""


class DuplicateEquationError(WdbError):
    """A set name was defined twice."""


class UndefinedNameError(WdbError):
    """A referenced set name has no defining equation."""


def is_identifier(text: str) -> bool:
    return bool(IDENTIFIER_RE.match(text))


# A NamedTuple class may not define __new__, so SetName extends one.
class _NameFields(NamedTuple):
    full: str
    url: str
    simple: str


class SetName(_NameFields):
    """Full set name: the immutable tuple (full, url, simple), where full is
    the rendered form url#simple.

    Every simple name the program makes is free of "#", so full alone
    determines a name.  Names order by their rendered form and never equal
    a string or an `Element`.
    """

    __slots__ = ()

    def __new__(cls, url: str, simple: str) -> "SetName":
        return tuple.__new__(cls, (url + "#" + simple, url, simple))

    def __getnewargs__(self) -> Tuple[str, str]:
        return self.url, self.simple

    def is_local(self) -> bool:
        return self.url == LOCAL_URL

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return "SetName(%r, %r)" % (self.url, self.simple)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.full


class Element(NamedTuple):
    """One labelled element of a bracket expression."""

    label: str
    member: SetName


# A flat bracket expression is a list of labelled elements.  Lists (not sets)
# so stored order and repetitions survive round trips; semantics ignores both.
FlatExpr = List[Element]


def parse_full_name(text: str) -> SetName:
    """Parse "url#simple": a non-empty URL and a non-empty simple name around
    the last "#"."""
    url, _, simple = text.rpartition("#")
    if not url or not simple:
        raise NameError_("malformed full set name: %r" % text)
    return SetName(url, simple)


def parse_set_name(text: str, base_url: str) -> SetName:
    """Parse "url#simple" or a bare simple name resolved against base_url."""
    if "#" in text:
        name = parse_full_name(text)
        if not is_identifier(name.simple):
            raise NameError_("illegal simple set name: %r" % name.simple)
        return name
    if "/" in text or ":" in text:
        raise NameError_("full set name missing '#' separator: %r" % text)
    if not is_identifier(text):
        raise NameError_("illegal identifier: %r" % text)
    return SetName(base_url, text)


@dataclass
class EquationSystem:
    """A system of flat set equations, keyed by full set name.

    ``generated`` marks names invented for the nested brackets of an XML-WDB
    document (these may be inlined again when writing XML).
    """

    equations: Dict[SetName, FlatExpr] = field(default_factory=dict)
    generated: Set[SetName] = field(default_factory=set)

    def define(self, name: SetName, elements: FlatExpr, generated: bool = False) -> None:
        if name in self.equations:
            raise DuplicateEquationError("duplicate equation for %s" % name.full)
        self.equations[name] = list(elements)
        if generated:
            self.generated.add(name)

    def __contains__(self, name: SetName) -> bool:
        return name in self.equations

    def get(self, name: SetName) -> Optional[FlatExpr]:
        return self.equations.get(name)

    def __getitem__(self, name: SetName) -> FlatExpr:
        try:
            return self.equations[name]
        except KeyError:
            raise UndefinedNameError("referenced set name undefined: %s" % name.full)

    def merge(self, other: "EquationSystem") -> None:
        for name, expr in other.equations.items():
            self.define(name, expr, generated=name in other.generated)

    def reachable(self, root: SetName) -> Set[SetName]:
        """Names in the transitive closure of root (root included), following
        only equations present in this system."""
        seen: Set[SetName] = set()
        stack = [root]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            for el in self.equations.get(n, []):
                if el.member not in seen:
                    stack.append(el.member)
        return seen

    def copy(self) -> "EquationSystem":
        sys2 = EquationSystem()
        sys2.equations = {n: list(e) for n, e in self.equations.items()}
        sys2.generated = set(self.generated)
        return sys2


N = TypeVar("N", bound=Hashable)
_SETTLED = sys.maxsize


def components(root: N, successors: Callable[[N], Iterable[N]]) -> Iterator[List[N]]:
    """The strongly connected components reachable from root, each once and
    only after every component it reaches, by an iterative form of Tarjan's
    search (Tarjan, "Depth-first search and linear graph algorithms", SIAM
    J. Comput. 1(2), 1972).  A name's successors are read, in order, when
    the search first reaches it, and the caller may act on a component
    before the search goes on."""
    # a name's least reachable position on the stack of unsettled names,
    # _SETTLED once its component is settled
    low = {root: 0}
    unsettled = [root]
    work = [(root, iter(successors(root)), 0)]  # name, successors left, position
    while work:
        name, members, position = work[-1]
        for member in members:
            if member not in low:
                low[member] = len(unsettled)
                work.append((member, iter(successors(member)), len(unsettled)))
                unsettled.append(member)
                break
            if low[member] < low[name]:
                low[name] = low[member]
        else:
            work.pop()
            if low[name] == position:
                component = unsettled[position:]
                del unsettled[position:]
                for settled in component:
                    low[settled] = _SETTLED
                yield component
            else:
                parent = work[-1][0]
                if low[name] < low[parent]:
                    low[parent] = low[name]


class NameAllocator:
    """Session-wide fresh-name source under the reserved local URL.

    Names for a hint h are drawn in the order h, h0, h1, h2, ... and are
    never reused within one allocator, even if the store forgets them.  A
    candidate with an equation is skipped: documents may not name session
    sets, and a query may name only one that has an equation.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def fresh(self, store: EquationSystem, hint: str = "res") -> SetName:
        while True:
            count = self._counters.get(hint)
            if count is None:
                self._counters[hint] = 0
                candidate = SetName(LOCAL_URL, hint)
            else:
                self._counters[hint] = count + 1
                candidate = SetName(LOCAL_URL, "%s%d" % (hint, count))
            if candidate not in store:
                return candidate
