"""Interned class ids for well-founded set names.

A name whose equation closure is present in the store and acyclic denotes a
well-founded set, and on well-founded sets bisimilarity is extensional
equality: two such names are equal exactly when their equations have the
same set of (label, member class) pairs.  Interning that set gives every
class one integer id (hash-consing, after Filliâtre & Conchon, "Type-safe
modular hash-consing", ML Workshop 2006), so equality is an integer compare
and membership a set lookup.

A name is interned on first use, with its closure, by a depth-first search
that stops at members which already have ids, so a generated name over
interned members costs one look at its own equation.  Ids are handed out in
the order names are interned.  A name that reaches a cycle never gets one:
equations are write-once, so the cycle stays.  A name with a descendant whose
equation is not in the store gets none until another document has been
loaded.  Nothing here fetches: names without an id are left to the lazy
bisimulation kernel.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .names import SetName
from .store import SessionStore

Signature = FrozenSet[Tuple[str, int]]


class ClassIds:
    """The class ids of the well-founded names of one session store."""

    def __init__(self, store: SessionStore) -> None:
        self.store = store
        self.ids: Dict[SetName, int] = {}
        self.cyclic: Set[SetName] = set()
        # name -> number of loaded documents when its closure was found open
        self.incomplete: Dict[SetName, int] = {}
        self.signatures: List[Signature] = []       # id -> {(label, member id)}
        self._interned: Dict[Signature, int] = {}

    def _intern(self, signature: Signature) -> int:
        cid = self._interned.get(signature)
        if cid is None:
            cid = self._interned[signature] = len(self.signatures)
            self.signatures.append(signature)
        return cid

    def of(self, name: SetName) -> Optional[int]:
        """The class id of name, or None when its closure is cyclic or not
        yet all in the store."""
        cid = self.ids.get(name)
        if cid is not None or name in self.cyclic:
            return cid
        if self.incomplete.get(name) == len(self.store.loaded_documents):
            return None
        return self._intern_closure(name)

    def _intern_closure(self, root: SetName) -> Optional[int]:
        """Intern root's closure bottom-up by an iterative depth-first
        search over the equations in the store.  A name is cyclic when a
        member is on the search path or cyclic itself, and incomplete when
        a member lacks an equation or is incomplete."""
        equations = self.store.system.equations
        stamp = len(self.store.loaded_documents)
        ids, cyclic, incomplete = self.ids, self.cyclic, self.incomplete
        elements = equations.get(root)
        if elements is None:
            incomplete[root] = stamp
            return None
        path = {root}
        stack = [[root, elements, 0, False]]   # name, elements, next, open
        while stack:
            frame = stack[-1]
            name, elements, index, missing = frame
            reaches_cycle = descended = False
            while index < len(elements):
                member = elements[index].member
                if member in ids:
                    index += 1
                elif member in cyclic or member in path:
                    reaches_cycle = True
                    break
                elif incomplete.get(member) == stamp:
                    missing = True
                    index += 1
                else:
                    below = equations.get(member)
                    if below is None:
                        incomplete[member] = stamp
                        missing = True
                        index += 1
                        continue
                    # descend; the member is looked at again once settled
                    frame[2], frame[3] = index, missing
                    path.add(member)
                    stack.append([member, below, 0, False])
                    descended = True
                    break
            if descended:
                continue
            stack.pop()
            path.discard(name)
            if reaches_cycle:
                cyclic.add(name)
            elif missing:
                incomplete[name] = stamp
            else:
                incomplete.pop(name, None)
                ids[name] = self._intern(frozenset(
                    [(label, ids[member]) for label, member in elements]))
        return ids.get(root)
