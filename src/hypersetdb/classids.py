"""Interned class ids for every set name whose equation closure is loaded.

Two names are equal when they are bisimilar, and the bisimilarity classes
form a strongly extensional graph: two classes are equal exactly when they
have the same set of (label, member class) pairs, cyclic classes included.
Interning that set gives every class one integer id (hash-consing, after
Filliâtre & Conchon, "Type-safe modular hash-consing", ML Workshop 2006, and
for cyclic terms Mauborgne, "An incremental unique representation for
regular trees", Nordic J. Computing 7(4), 2000), so equality is an integer
compare and membership a set lookup.

A name is interned on first use.  A name whose members all have ids is
interned by its signature, so a generated name over interned members costs
one look at its own equation.  Otherwise its closure is interned by the
strongly connected components of `names.components`, which stops at
members that have ids: a component of one name on no cycle is interned by
its signature, and a cyclic one is refined against the classes it could
join (`_intern_component`).  Equations are write-once, so an id never
changes.  A name with a descendant whose equation is not in the store gets
none until another document has been loaded; nothing here fetches.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .bisim import stable_blocks
from .names import Element, SetName, components
from .store import SessionStore

Signature = FrozenSet[Tuple[str, int]]
# A signature with every non-well-founded member id read as None.  Bisimilar
# names share it, so a class can hold a name only if their keys are equal.
Key = FrozenSet[Tuple[str, Optional[int]]]


class ClassIds:
    """The class ids of the names of one session store."""

    def __init__(self, store: SessionStore) -> None:
        self.store = store
        self.ids: Dict[SetName, int] = {}
        # name -> number of loaded documents when its closure was found open
        self.incomplete: Dict[SetName, int] = {}
        self.signatures: List[Signature] = []       # id -> {(label, member id)}
        self._interned: Dict[Signature, int] = {}
        self._unfounded: Set[int] = set()           # non-well-founded ids
        self._by_key: Dict[Key, List[int]] = {}     # key -> non-well-founded ids

    def of(self, name: SetName) -> Optional[int]:
        """The class id of name, or None while its closure is not all in
        the store."""
        cid = self.ids.get(name)
        if cid is None and self.incomplete.get(name) != len(self.store.loaded_documents):
            cid = self._intern_closure(name)
        return cid

    def _key(self, pairs: Iterable[Tuple[str, Optional[int]]]) -> Key:
        return frozenset([(label, None if cid is None or cid in self._unfounded else cid)
                          for label, cid in pairs])

    def _intern(self, signature: Signature) -> int:
        cid = self._interned.get(signature)
        if cid is None:
            cid = self._interned[signature] = len(self.signatures)
            self.signatures.append(signature)
            if self._unfounded and any(m in self._unfounded for _, m in signature):
                self._unfounded.add(cid)
                self._by_key.setdefault(self._key(signature), []).append(cid)
        return cid

    def _intern_closure(self, root: SetName) -> Optional[int]:
        """Intern root by its signature when its members all have ids, and
        otherwise intern its closure component by component (`components`),
        over the members without an id that are not found incomplete.  A
        component is incomplete when one of its names lacks an equation or
        has an incomplete member; otherwise its members outside it all have
        ids by the time it is settled."""
        equations = self.store.system.equations
        stamp = len(self.store.loaded_documents)
        ids, incomplete = self.ids, self.incomplete
        try:
            signature = frozenset([(label, ids[m]) for label, m in equations[root]])
        except KeyError:
            for component in components(root, lambda n: [
                    m for _, m in equations.get(n, ()) if m not in ids
                    and incomplete.get(m) != stamp]):
                name = component[0]
                try:
                    signature = frozenset([(label, ids[m]) for label, m in equations[name]])
                except KeyError:    # incomplete, or on a cycle
                    if any(n not in equations or any(incomplete.get(m) == stamp
                                                     for _, m in equations[n])
                           for n in component):
                        incomplete.update(dict.fromkeys(component, stamp))
                    else:
                        self._intern_component(component)
                else:
                    ids[name] = self._intern(signature)
        else:
            ids[root] = self._intern(signature)
        return ids.get(root)

    def _intern_component(self, component: List[SetName]) -> None:
        """Give ids to a cyclic component whose members outside it have ids.

        `stable_blocks` runs over the component and a quotient node per
        non-well-founded class with a component name's key; no other class
        can hold one of its names.  An id with a node reads as the node, on
        the component side and the quotient side alike, and every other id
        is keyed outside by itself.  A block with a node takes the node's
        id, and every other block is a new class."""
        ids, equations = self.ids, self.store.system.equations
        keys = {self._key([(label, ids.get(m)) for label, m in equations[n]])
                for n in component}
        nodes = {cid: SetName("", str(cid)) for key in keys
                 for cid in self._by_key.get(key, ())}
        graph = {n: [Element(label, nodes.get(ids[m], ids[m]) if m in ids else m)
                     for label, m in equations[n]] for n in component}
        for cid, node in nodes.items():
            graph[node] = [Element(label, nodes.get(m, m))
                           for label, m in self.signatures[cid]]
        blocks = stable_blocks(graph, graph, outside=lambda cid: cid)
        class_of = {blocks[node]: cid for cid, node in nodes.items()}
        fresh = []      # a name per new class, in the order of their ids
        for n in sorted(component):
            if blocks[n] not in class_of:
                class_of[blocks[n]] = len(self.signatures) + len(fresh)
                self._unfounded.add(class_of[blocks[n]])
                fresh.append(n)
            ids[n] = class_of[blocks[n]]
        for n in fresh:
            self._intern(frozenset([(label, ids[m]) for label, m in equations[n]]))
