"""Core data model: set names, labelled elements, flat and nested bracket
expressions, equation systems and fresh-name generation.

A web-like database (WDB) is a system of flat set equations

    name = { label1:member1, ..., labelN:memberN }

where every name is a *full* set name (document URL + "#" + simple name).
Element order and repetition are kept for I/O fidelity but carry no meaning:
all semantic operations must be invariant under permutation and duplication.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple, Union

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


class SetName:
    """Full set name: document URL plus simple name, rendered url#simple.

    Immutable and heavily used as a dict key, so the rendered form and hash
    are precomputed.
    """

    __slots__ = ("url", "simple", "full", "_hash")

    def __init__(self, url: str, simple: str) -> None:
        self.url = url
        self.simple = simple
        self.full = url + "#" + simple
        self._hash = hash(self.full)

    def is_local(self) -> bool:
        return self.url == LOCAL_URL

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetName) and self.full == other.full

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "SetName") -> bool:
        return self.full < other.full

    def __le__(self, other: "SetName") -> bool:
        return self.full <= other.full

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

    ``generated`` marks names invented while flattening nested input (these
    may be inlined again when writing XML).
    """

    equations: Dict[SetName, FlatExpr] = field(default_factory=dict)
    generated: Set[SetName] = field(default_factory=set)
    mentioned: Set[SetName] = field(default_factory=set)

    def define(self, name: SetName, elements: FlatExpr, generated: bool = False) -> None:
        if name in self.equations:
            raise DuplicateEquationError("duplicate equation for %s" % name.full)
        self.equations[name] = list(elements)
        self.mentioned.add(name)
        self.mentioned.update(el.member for el in elements)
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

    def mentions(self, name: SetName) -> bool:
        return name in self.mentioned

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
        sys2.mentioned = set(self.mentioned)
        return sys2


# ---------------------------------------------------------------------------
# Nested expressions and flattening
# ---------------------------------------------------------------------------

@dataclass
class Bracket:
    """A nested bracket expression: a list of (label, NestedExpr) entries."""

    entries: List[Tuple[str, "NestedExpr"]] = field(default_factory=list)


NestedExpr = Union[SetName, Bracket]


def flatten(nested: Dict[SetName, NestedExpr],
            name_maker: Optional[Callable[[SetName, int], SetName]] = None
            ) -> EquationSystem:
    """Unnest bracket expressions by introducing fresh set names.

    The default name maker derives deterministic names from the defining
    equation ("x-e1", "x-e2", ...), skipping names already taken, so the
    result is unique for a given input.
    """
    system = EquationSystem()
    taken: Set[str] = {n.simple for n in nested if n.url != LOCAL_URL}
    taken.update(n.simple for n in nested)

    def default_maker(parent: SetName, counter: int) -> SetName:
        base = "%s-e%d" % (parent.simple, counter)
        while base in taken:
            counter += 1
            base = "%s-e%d" % (parent.simple, counter)
        taken.add(base)
        return SetName(parent.url, base)

    maker = name_maker or default_maker

    def walk(parent: SetName, expr: NestedExpr, state: List[int]) -> SetName:
        if isinstance(expr, SetName):
            return expr
        state[0] += 1
        fresh = maker(parent, state[0])
        elements = []
        for label, sub in expr.entries:
            elements.append(Element(label, walk(parent, sub, state)))
        system.define(fresh, elements, generated=True)
        return fresh

    for name, expr in nested.items():
        if isinstance(expr, SetName):
            raise WdbError("top-level equation %s must be a bracket" % name.full)
        state = [0]
        elements = []
        for label, sub in expr.entries:
            elements.append(Element(label, walk(name, sub, state)))
        system.define(name, elements)
    return system


class NameAllocator:
    """Session-wide fresh-name source under the reserved local URL.

    Names for a hint h are drawn in the order h, h0, h1, h2, ... and are
    never reused within one allocator, even if the store forgets them.
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
            if not store.mentions(candidate):
                return candidate
