"""Answer checks.  Every check compares with the brute-force partition
(`naive_bisimulation`) of a closed system: the generated WDB, the result's
reachable equations from the session store, and the expected equations.
A check returns None when the answer is right, else what is wrong."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from hypersetdb.bisim import naive_bisimulation
from hypersetdb.names import EquationSystem, SetName

from .inputs import Expected


def closed_system(base: EquationSystem, store_system: EquationSystem,
                  roots: Iterable[SetName]) -> EquationSystem:
    system = base.copy()
    for root in roots:
        for name in store_system.reachable(root):
            if name not in system and name in store_system:
                system.define(name, store_system[name])
    return system


def check_command(expected: Expected, output: str, outcome,
                  store_system: EquationSystem, base: EquationSystem) -> Optional[str]:
    """`outcome` is the QueryResult the session rendered, or None."""
    for text in expected.present:
        if text not in output:
            return "output lacks %r" % text
    for text in expected.absent:
        if text in output:
            return "output has %r" % text
    if expected.boolean is not None:
        if outcome is None or outcome.boolean is not expected.boolean:
            return "boolean result %r, expected %r" % (
                outcome and outcome.boolean, expected.boolean)
    if expected.root is not None:
        if outcome is None or outcome.root is None:
            return "no set result"
        system = closed_system(base, store_system, [outcome.root])
        system.merge(expected.system)
        blocks = naive_bisimulation(system)
        if blocks[outcome.root] != blocks[expected.root]:
            return "set result not bisimilar to the expected set"
    return None


def _pairs(system: EquationSystem, blocks: Dict[SetName, int],
           root: SetName) -> Optional[List[Tuple[int, int]]]:
    """The (fst class, snd class) of every element of root, or None when an
    element is not a pair."""
    out = []
    for element in system[root]:
        parts = {el.label: el.member for el in system[element.member]}
        if len(system[element.member]) != 2 or set(parts) != {"fst", "snd"}:
            return None
        out.append((blocks[parts["fst"]], blocks[parts["snd"]]))
    return out


def check_linear_order(order_root: SetName, successor_root: SetName,
                       store_system: EquationSystem, base: EquationSystem,
                       classes: int) -> Optional[str]:
    """The criterion-8 properties: the order is a strict total order on the
    `classes` classes of the transitive closure, and the successor pairs
    are its covering pairs, `classes` - 1 of them."""
    system = closed_system(base, store_system, [order_root, successor_root])
    blocks = naive_bisimulation(system)
    pairs, successors = _pairs(system, blocks, order_root), _pairs(system, blocks, successor_root)
    if pairs is None or successors is None:
        return "result elements are not pairs"
    relation = set(pairs)
    nodes = {c for pair in relation for c in pair}
    if len(nodes) != classes or len(relation) != classes * (classes - 1) // 2:
        return "order over %d classes with %d pairs, expected %d classes" % (
            len(nodes), len(relation), classes)
    for a, b in relation:
        if a == b or (b, a) in relation:
            return "order is not strict"
        if any((a, c) not in relation for b2, c in relation if b2 == b):
            return "order is not transitive"
    between = {(a, c) for a, b in relation for b2, c in relation if b == b2}
    if len(successors) != classes - 1 or set(successors) != relation - between:
        return "successor pairs are not the covering pairs of the order"
    return None
