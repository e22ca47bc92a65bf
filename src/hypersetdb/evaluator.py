"""Query evaluation by reduction: extend the store with fresh equations and
simplify until the result is a flat bracket expression or a truth value.
An analyzed query or declaration is compiled once into nested closures,
which the evaluator then runs.

Equality compares interned class ids where both names have one and
otherwise delegates to the bisimulation module; separation, collection,
recursion, transitive closure and decoration have their own algorithms, and
the output renderer folds generated names back into readable nested form.

Hot steps are dict reads: class ids and equations are read in place, and
only a miss interns or fetches; identifier operands of calls and of
membership tests are read from the environment; an iteration copies its
environment once and overwrites the bound variables for each element, since
no step keeps a binder's environment (closures, declarations and calls copy
what they capture).  A quantifier runs a repeat-free body (`_repeat_free`)
once per distinct element.
"""

from __future__ import annotations

import functools
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import grammar as g
from .analysis import Library, analyze
from .bisim import BisimHelpers, FactStore, bisimilar
from .classids import ClassIds
from .library import PREDEFINED_DECLARATIONS
from .names import Element, EquationSystem, FlatExpr, NULL_LABEL, SetName, WdbError
from .parser import ParseNode, parse
from .store import SessionStore


class EvaluationError(WdbError):
    pass


# A compiled node: run(evaluator, env) -> SetName | bool | str.  An
# environment maps a name to its value: a SetName, a label (str) or a Closure.
Env = Dict[str, object]
Run = Callable[["Evaluator", Env], object]
Declarations = Callable[["Evaluator", Env], Env]


@dataclass
class Closure:
    """A declared query bound in an environment: its parameter names, its
    compiled body and the environment it captured.  `memo` maps an argument
    key to a result (see `_call`); closures, and so memos, belong to one
    evaluator, since the class ids in the keys do."""

    parameters: Tuple[str, ...]
    body: Run
    env: Env
    memo: Dict[tuple, object] = field(default_factory=dict, compare=False,
                                      repr=False)


@dataclass
class QueryResult:
    boolean: Optional[bool] = None
    root: Optional[SetName] = None

    @property
    def is_boolean(self) -> bool:
        return self.boolean is not None


@functools.lru_cache(maxsize=None)
def _predefined() -> Tuple[Library, Declarations]:
    tree = analyze(parse(
        "library add " + ",\n".join(PREDEFINED_DECLARATIONS) + ";"))
    library = Library().extended(tree.children[1], PREDEFINED_DECLARATIONS)
    return library, compile_declarations(library.declarations)


def predefined_library() -> Library:
    """The predefined library, analyzed and compiled once per process the
    way a user's `library add` of its declarations is.  Every evaluator
    shares it and its compiled declarations; it is never mutated, since
    `Library.extended` returns a new library."""
    return _predefined()[0]


class Evaluator:
    """Runs compiled queries over a session store.

    One evaluator serves a whole query session: generated equations, atom
    registry and resolved bisimulation facts persist between queries.  It
    starts from the shared predefined library, whose compiled declarations
    it runs into its own environment, so its query closures and their call
    memos are its own.  `decorate` groups the graph itself and calls no
    library query, so no `library add` changes it.

    `in_formula` is true while a formula is evaluated; only then may a set
    query call return a memoized result (see `_call`).  `call_depth` counts
    the query bodies in progress, each weighted by the terms and formulas
    around the call that entered it.  A call that would take it past
    `max_call_depth`, a third of the interpreter's recursion limit, is
    refused before it starts: that leaves the innermost body and the
    equality kernel below it room on the stack, so no bisimulation or store
    update is cut off half-way.
    """

    def __init__(self, store: SessionStore, facts: Optional[FactStore] = None,
                 helpers: Optional[BisimHelpers] = None) -> None:
        self.store = store
        self.facts = facts or FactStore()
        self.helpers = helpers or BisimHelpers()
        self.class_ids = ClassIds(store)
        # quantified name -> positions of its distinct elements, or None when
        # it repeats none (see `distinct_elements`)
        self.first_positions: Dict[SetName, Optional[List[int]]] = {}
        self.atoms: Dict[str, SetName] = {}
        self.empty_name: Optional[SetName] = None
        self.in_formula = False
        self.call_depth = 0
        self.max_call_depth = sys.getrecursionlimit() // 3
        self.library, declarations = _predefined()
        self.library_env = declarations(self, {})

    # -- plumbing ------------------------------------------------------------

    def add_library(self, command: ParseNode, sources: Sequence[str]) -> None:
        """Add the declarations of an analyzed `library add` command:
        compile and run only them, in the environment of the library in
        use, which they then extend.  Raises WdbError before the library in
        use changes."""
        library = self.library.extended(command, sources)
        added = library.declarations[len(self.library.declarations):]
        env = compile_declarations(added)(self, self.library_env)
        self.library, self.library_env = library, env

    def equal(self, x: SetName, y: SetName) -> bool:
        """Bisimilarity.  Names whose closures are loaded, cycles included,
        compare class ids, read in place and interned only on a miss; a pair
        with a name whose closure is still open goes to the lazy kernel."""
        ids = self.class_ids
        ix, iy = ids.ids.get(x), ids.ids.get(y)
        if ix is None:
            ix = ids.of(x)
        if iy is None:
            iy = ids.of(y)
        if ix is not None and iy is not None:
            return ix == iy
        return bisimilar(x, y, self.store, self.facts, self.helpers)

    def elements(self, name: SetName) -> FlatExpr:
        """The equation of name, read in place, or fetched on a miss."""
        elements = self.store.system.equations.get(name)
        return self.store.lookup(name) if elements is None else elements

    def distinct_elements(self, name: SetName) -> Iterable[Element]:
        """The elements of name without repeats, for a repeat-free
        quantifier body.  Equations are write-once, so the positions of the
        first occurrences are kept per name that has repeats.  Repeats are
        skipped only until a document loads: a load can give a name a class
        id and so change the call-memo keys that a repeat would run with."""
        elements = self.elements(name)
        positions = self.first_positions.get(name, _MISSING)
        if positions is _MISSING:
            first = {}
            for index, element in enumerate(elements):
                first.setdefault(element, index)
            positions = list(first.values()) if len(first) < len(elements) else None
            self.first_positions[name] = positions
        if positions is None:
            return elements
        return _unrepeated(elements, positions, self.store.loaded_documents)

    def define_fresh(self, elements: FlatExpr, hint: str = "res") -> SetName:
        name = self.store.fresh(hint)
        self.store.define(name, elements)
        return name

    def atom(self, text: str) -> SetName:
        if text in self.atoms:
            return self.atoms[text]
        if self.empty_name is None:
            self.empty_name = self.define_fresh([], hint="empty")
        name = self.define_fresh([Element(text, self.empty_name)],
                                 hint="atom-" + text)
        self.atoms[text] = name
        return name

    # -- evaluation of a whole query ------------------------------------------

    def eval_query(self, top_level: ParseNode) -> QueryResult:
        """Compile an analyzed query command and run it in the library's
        environment."""
        query = top_level.children[0]
        if query.label != g.QUERY:
            raise EvaluationError("not a query command")
        body = query.children[2]
        if query.children[0].label == "boolean":
            return QueryResult(boolean=_condition(body)(self, self.library_env))
        root = _term(body)(self, self.library_env)
        self.store.lookup(root)  # the result equation must be present
        return QueryResult(root=root)

    # -- iteration constructs ---------------------------------------------------

    def eval_recursion(self, rec_var: str, pool: FlatExpr, env: Env,
                       binder: Binder, condition: Run) -> SetName:
        """The least fixpoint of a recursion: each stage binds rec_var to the
        elements kept so far and keeps every pool element whose condition
        then holds, until a stage keeps nothing new."""
        current: List[Element] = []
        current_set: Set[Element] = set()
        while True:
            stage_name = self.define_fresh(list(current), hint=rec_var)
            bound = dict(env)
            bound[rec_var] = stage_name
            added = False
            for element in _bindings(binder, pool, bound):
                if element in current_set:
                    continue
                if condition(self, bound):
                    current.append(element)
                    current_set.add(element)
                    added = True
            if not added:
                return stage_name

    def eval_tc(self, target: SetName) -> SetName:
        items: List[Element] = [Element(NULL_LABEL, target)]
        present: Set[Element] = set(items)
        index = 0
        while index < len(items):
            _, member = items[index]
            for element in self.elements(member):
                if element not in present:
                    present.add(element)
                    items.append(element)
            index += 1
        return self.define_fresh(items)

    def eval_membership(self, label: str, member: SetName, target: SetName) -> bool:
        ids = self.class_ids
        target_id, member_id = ids.ids.get(target), ids.ids.get(member)
        if target_id is None:
            target_id = ids.of(target)
        if target_id is not None:
            if member_id is None:
                member_id = ids.of(member)
            if member_id is not None:
                return (label, member_id) in ids.signatures[target_id]
        return any(el.label == label and self.equal(el.member, member)
                   for el in self.elements(target))

    # -- decoration ---------------------------------------------------------------

    def eval_decorate(self, graph: SetName, vertex: SetName) -> SetName:
        """Decorate the graph (Aczel's decoration lemma): every node class gets
        the set of its decorated children.  The result is the decoration of
        the node equal to the vertex, a system of duplicate names minted for
        the classes it reaches, or `{}` when the vertex is no node.

        An element l:p of the graph is an edge when the library's isPair(p)
        holds: p has `fst` members, all equal, and `snd` members, all equal.
        The nodes are all members of such p, whatever their label, as the
        library's Nodes has them.  A class's children are the (l, class of
        snd) of the edges whose fst lies in it, in graph order and without
        duplicates."""
        edges: List[Tuple[str, SetName, SetName]] = []  # (label, fst, snd)
        nodes: Dict[SetName, None] = {}  # insertion-ordered set
        for label, pair in self.elements(graph):
            members = self.elements(pair)
            first = [m for l, m in members if l == "fst"]
            second = [m for l, m in members if l == "snd"]
            if first and second and \
                    all(self.equal(first[0], m) for m in first[1:]) and \
                    all(self.equal(second[0], m) for m in second[1:]):
                edges.append((label, first[0], second[0]))
                nodes.update(dict.fromkeys(m for _, m in members))

        canonical = self._canonical_names(list(nodes))
        children: Dict[SetName, List[Element]] = {canonical[x]: [] for x in nodes}
        for label, first, second in edges:
            kids = children[canonical[first]]
            child = Element(label, canonical[second])
            if child not in kids:
                kids.append(child)

        root = next((can for can in children if self.equal(can, vertex)), None)
        if root is None:
            return self.define_fresh([])
        reached = EquationSystem(children).reachable(root)
        duplicates = {can: self.store.fresh("res") for can in children if can in reached}
        for can, name in duplicates.items():
            self.store.define(name, [Element(l, duplicates[m]) for l, m in children[can]])
        return duplicates[root]

    def _canonical_names(self, names: List[SetName]) -> Dict[SetName, SetName]:
        """Map each name to the smallest full name among those equal to it.
        Names with class ids are grouped by id; only a name without one, or
        a smaller candidate without one, is compared by `equal`."""
        ids = {name: self.class_ids.of(name) for name in names}
        ordered = sorted(names)
        smallest: Dict[int, SetName] = {}
        for name in ordered:
            if ids[name] is not None:
                smallest.setdefault(ids[name], name)
        unsettled = [name for name in ordered if ids[name] is None]
        canonical: Dict[SetName, SetName] = {}
        for name in names:
            best = smallest.get(ids[name])
            for candidate in unsettled if best is not None else ordered:
                if best is not None and candidate >= best:
                    break
                if self.equal(candidate, name):
                    best = candidate
                    break
            canonical[name] = best
        return canonical


# ---------------------------------------------------------------------------
# Compiling analyzed trees to closures
# ---------------------------------------------------------------------------
#
# Each node is compiled once into a nested closure run(evaluator, env)
# (Feeley & Lapalme, "Using closures for code generation", Computer
# Languages 12(1), 1987).  Everything fixed once analysis is done is worked
# out here: the node kind, literal labels, identifier names, variable pairs,
# connective operands and the kind of each call argument.  A node runs its
# sub-nodes in a fixed order, so generated names are allocated in a fixed
# order too.

_MISSING = object()


def _term(node: ParseNode) -> Run:
    make = _TERMS.get(node.label)
    if make is None:
        raise EvaluationError("cannot evaluate %s as a term" % node.label)
    return make(node)


def _formula(node: ParseNode) -> Run:
    make = _FORMULAS.get(node.label)
    if make is None:
        raise EvaluationError("cannot evaluate %s as a formula" % node.label)
    return make(node)


def _label(node: ParseNode) -> Run:
    if node.label == g.LABEL_VALUE:
        text = node.children[0].label.strip("'")
        return lambda ev, env: text
    if node.label in (g.LABEL_VARIABLE, g.LABEL_CONSTANT):
        return _identifier(node)
    raise EvaluationError("cannot evaluate %s as a label" % node.label)


def compile_declarations(declarations: Sequence[ParseNode]) -> Declarations:
    """Compile a declaration list into a function from an environment to a
    new one extended by the declarations in order.  A query closure
    captures the environment before its own declaration."""
    steps = []  # (name, run giving its value in the environment so far)
    for decl in declarations:
        if decl.label == g.SET_CONSTANT_DECL:
            value = _term(decl.children[-1])
        elif decl.label == g.LABEL_CONSTANT_DECL:
            value = _label(decl.children[-1])
        elif decl.label in (g.SET_QUERY_DECL, g.BOOLEAN_QUERY_DECL):
            value = _query(decl)
        else:
            continue
        steps.append((decl.children[2].identifier_text(), value))

    def run(ev: Evaluator, env: Env) -> Env:
        current = dict(env)
        for name, value in steps:
            current[name] = value(ev, current)
        return current
    return run


def _query(decl: ParseNode) -> Run:
    parameters = tuple(variable.children[1].identifier_text()
                       for variable in decl.children[4].children
                       if variable.label == g.VARIABLE)
    body = (_term if decl.label == g.SET_QUERY_DECL else _formula)(decl.children[-1])
    return lambda ev, env: Closure(parameters, body, dict(env))


def _condition(node: ParseNode) -> Run:
    """A formula met in a term or as a boolean query: it marks the
    evaluation as inside a formula until it returns or raises."""
    formula = _formula(node)

    def run(ev, env):
        if ev.in_formula:
            return formula(ev, env)
        ev.in_formula = True
        try:
            return formula(ev, env)
        finally:
            ev.in_formula = False
    return run


def _call(node: ParseNode) -> Run:
    """Call a declared query; inside a formula, memoized on what its
    arguments denote.

    The language is extensional and equations are write-once, so a call's
    value depends only on the classes of its set arguments and the text of
    its label arguments.  The key holds a set argument's class id, or the
    name itself when it has none.  Boolean calls occur only in formulas, so
    they are always memoized.  Outside formulas a set call is evaluated
    afresh: a result name reused in a query's answer would change the
    printed output.  A call that raises stores nothing.

    A call is refused on entry, before anything is evaluated, when its body
    would take `call_depth` past `max_call_depth` (see `Evaluator`)."""
    name = node.children[1].identifier_text()
    arguments = []  # (is a set argument, is an identifier, its name or run)
    for arg in node.children[3].children:
        is_set = arg.label in g.TERM_CATEGORIES
        if arg.label in _IDENTIFIERS:
            arguments.append((is_set, True, arg.identifier_text()))
        elif arg.label != ",":
            arguments.append((is_set, False, (_term if is_set else _label)(arg)))
    weight = 1 + _nesting(node)

    def run(ev, env):
        if ev.call_depth + weight > ev.max_call_depth:
            raise EvaluationError("query calls nested too deeply")
        closure = env[name]
        memoized = ev.in_formula
        ids = ev.class_ids.ids
        values = []
        key = []
        for is_set, by_name, argument in arguments:
            value = env[argument] if by_name else argument(ev, env)
            values.append(value)
            if not is_set:
                key.append(value)
            elif memoized:
                cid = ids.get(value)
                if cid is None:
                    cid = ev.class_ids.of(value)
                key.append(value if cid is None else cid)
        if memoized:
            key = tuple(key)
            result = closure.memo.get(key, _MISSING)
            if result is not _MISSING:
                return result
        call_env = dict(closure.env)
        call_env.update(zip(closure.parameters, values))
        ev.call_depth += weight
        try:
            result = closure.body(ev, call_env)
        finally:
            ev.call_depth -= weight
        if memoized:
            closure.memo[key] = result
        return result
    return run


def _nesting(node: ParseNode) -> int:
    """The terms and formulas that enclose a call inside the query or the
    query body it lies in: about the interpreter frames between the body's
    entry and the call."""
    depth = 0
    node = node.parent
    while node is not None and node.label not in (g.QUERY, g.SET_QUERY_DECL,
                                                  g.BOOLEAN_QUERY_DECL):
        if node.label in g.TERM_CATEGORIES or node.label in g.FORMULA_CATEGORIES:
            depth += 1
        node = node.parent
    return depth


def _identifier(node: ParseNode) -> Run:
    name = node.identifier_text()
    return lambda ev, env: env[name]


# identifiers that a call argument or a membership operand reads in place
_IDENTIFIERS = frozenset({g.SET_VARIABLE, g.SET_CONSTANT, g.LABEL_VARIABLE,
                          g.LABEL_CONSTANT})

# (label literal or None, label variable or None, set variable)
Binder = Tuple[Optional[str], Optional[str], str]


def _binder(pair: ParseNode) -> Binder:
    """The variable pair l:x of an iteration.  The iteration copies its
    environment once and overwrites l and x in that copy for each element
    the pair matches (see `_bindings`)."""
    label_part, _, set_part = pair.children
    if label_part.label == g.LABEL_VALUE:
        return label_part.children[0].label.strip("'"), None, set_part.identifier_text()
    return None, label_part.identifier_text(), set_part.identifier_text()


def _bindings(binder: Binder, elements: Iterable[Element], bound: Env
              ) -> Iterable[Element]:
    """Each element the pair matches, once it is bound into `bound`."""
    literal, label_var, set_var = binder
    for element in elements:
        if literal is None:
            bound[label_var] = element.label
        elif element.label != literal:
            continue
        bound[set_var] = element.member
        yield element


def _unrepeated(elements: FlatExpr, positions: List[int],
                loaded: Dict[str, bool]) -> Iterable[Element]:
    """The elements at positions until a document loads, then every
    element after the current one."""
    count = len(loaded)
    for index in positions:
        yield elements[index]
        if len(loaded) != count:
            yield from elements[index + 1:]
            return


_REPEAT_FREE_TERMS = frozenset({g.SET_VARIABLE, g.SET_CONSTANT, g.SET_NAME,
                                g.ATOMIC_VALUE, g.SET_QUERY_CALL, g.IF_ELSE_TERM})


def _repeat_free(formula: ParseNode) -> bool:
    """Whether every term in the formula is an identifier, a set name, an
    atomic value, a query call or an if-else of these: no enumerate, union,
    collect, separate, TC, recursion, decorate or `let`.  Formulas run with
    `in_formula` set, so run again with the same bindings, and with no
    document loaded since, such a formula hits the call memo everywhere: it
    mints no name, fetches nothing and asks no new oracle question."""
    stack = [formula]
    while stack:
        node = stack.pop()
        if node.label == g.FORMULA_WITH_DECLS or (
                node.label in g.TERM_CATEGORIES and node.label not in _REPEAT_FREE_TERMS):
            return False
        stack.extend(node.children)
    return True


# -- terms ---------------------------------------------------------------------

def _set_name(node: ParseNode) -> Run:
    url, _, simple = node.children[0].label.rpartition("#")
    name = SetName(url, simple)
    return lambda ev, env: name


def _atomic_value(node: ParseNode) -> Run:
    text = node.children[0].label.strip('"')
    return lambda ev, env: ev.atom(text)


def _enumerate(node: ParseNode) -> Run:
    items = [(_label(lt.children[0]), _term(lt.children[2]))
             for lt in node.children[1].children if lt.label == g.LABELLED_TERM]

    def run(ev, env):
        elements = []
        for label, member in items:
            elements.append(Element(label(ev, env), member(ev, env)))
        return ev.define_fresh(elements)
    return run


def _union(node: ParseNode) -> Run:
    target = _term(node.children[1])

    def run(ev, env):
        combined: FlatExpr = []
        for _, member in ev.elements(target(ev, env)):
            combined.extend(ev.elements(member))
        return ev.define_fresh(combined)
    return run


def _paren_term(node: ParseNode) -> Run:
    inner = node.children[1]
    if inner.label != g.MULTIPLE_UNION:
        return _term(inner)
    parts = [_term(child) for child in inner.children
             if child.label not in ("U", "union")]

    def run(ev, env):
        combined: FlatExpr = []
        for part in parts:
            combined.extend(ev.elements(part(ev, env)))
        return ev.define_fresh(combined)
    return run


def _collect(node: ParseNode) -> Run:
    template = node.children[2]
    label, member = _label(template.children[0]), _term(template.children[2])
    binder = _binder(node.children[4])
    target = _term(node.children[6])
    condition = _condition(node.children[8]) if node.children[7].label == "and" \
        else None

    def run(ev, env):
        out: FlatExpr = []
        bound = dict(env)
        for _ in _bindings(binder, ev.elements(target(ev, env)), bound):
            if condition is None or condition(ev, bound):
                out.append(Element(label(ev, bound), member(ev, bound)))
        return ev.define_fresh(out)
    return run


def _separate(node: ParseNode) -> Run:
    binder = _binder(node.children[2])
    target = _term(node.children[4])
    condition = _condition(node.children[6])

    def run(ev, env):
        kept = []
        bound = dict(env)
        for element in _bindings(binder, ev.elements(target(ev, env)), bound):
            if condition(ev, bound):
                kept.append(element)
        return ev.define_fresh(kept)
    return run


def _recursion(node: ParseNode) -> Run:
    rec_var = node.children[1].identifier_text()
    binder = _binder(node.children[3])
    target = _term(node.children[5])
    condition = _condition(node.children[7])
    return lambda ev, env: ev.eval_recursion(rec_var, ev.elements(target(ev, env)),
                                             env, binder, condition)


def _transitive_closure(node: ParseNode) -> Run:
    target = _term(node.children[1])
    return lambda ev, env: ev.eval_tc(target(ev, env))


def _decoration(node: ParseNode) -> Run:
    graph, vertex = _term(node.children[2]), _term(node.children[4])
    return lambda ev, env: ev.eval_decorate(graph(ev, env), vertex(ev, env))


def _if_else(branch_compiler, condition_compiler):
    def make(node: ParseNode) -> Run:
        condition = condition_compiler(node.children[1])
        then = branch_compiler(node.children[3])
        otherwise = branch_compiler(node.children[5])
        return lambda ev, env: (then if condition(ev, env) else otherwise)(ev, env)
    return make


def _with_declarations(body_compiler):
    def make(node: ParseNode) -> Run:
        declarations = compile_declarations(node.children[1].children)
        body = body_compiler(node.children[3])
        return lambda ev, env: body(ev, declarations(ev, env))
    return make


# -- formulas ------------------------------------------------------------------

def _boolean_literal(node: ParseNode) -> Run:
    value = node.children[0].label == "true"
    return lambda ev, env: value


def _negated(node: ParseNode) -> Run:
    inner = _formula(node.children[1])
    return lambda ev, env: not inner(ev, env)


def _set_equality(node: ParseNode) -> Run:
    lhs, rhs = _term(node.children[0]), _term(node.children[2])
    return lambda ev, env: ev.equal(lhs(ev, env), rhs(ev, env))


def _membership(node: ParseNode) -> Run:
    label_node, _, member_node = node.children[0].children
    target_node = node.children[2]
    if label_node.label == g.LABEL_VALUE and member_node.label in _IDENTIFIERS \
            and target_node.label in _IDENTIFIERS:
        # 'lit':x in y reads its operands in place
        text = label_node.children[0].label.strip("'")
        x, y = member_node.identifier_text(), target_node.identifier_text()
        return lambda ev, env: ev.eval_membership(text, env[x], env[y])
    label, member, target = _label(label_node), _term(member_node), _term(target_node)
    return lambda ev, env: ev.eval_membership(label(ev, env), member(ev, env),
                                              target(ev, env))


_COMPARISONS = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
                ">=": operator.ge}


def _label_relation(node: ParseNode) -> Run:
    lhs, op_node, rhs = node.children
    if node.label == g.LABEL_RELATIONSHIP:
        compare = _COMPARISONS[op_node.label]
    elif g.WILDCARD_LABEL in (lhs.label, rhs.label):
        wildcard, other = (lhs, rhs) if lhs.label == g.WILDCARD_LABEL else (rhs, lhs)
        return _wildcard_match(wildcard, _label(other))
    else:
        compare = operator.eq
    left, right = _label(lhs), _label(rhs)
    return lambda ev, env: compare(left(ev, env), right(ev, env))


def _wildcard_match(wildcard: ParseNode, value: Run) -> Run:
    """A label against a pattern: a literal such as 'Rob*' or '*base*', or a
    label name with stars, such as l* or *l*."""
    if len(wildcard.children) == 1:
        text = wildcard.children[0].label.strip("'")
        prefix = text.startswith("*")
        suffix = text.endswith("*") and len(text) > 1
        core_text = text.strip("*")

        def core(ev, env):
            return core_text
    else:
        prefix = wildcard.children[0].label == "*"
        suffix = wildcard.children[-1].label == "*"
        core = _label(wildcard.children[1] if prefix else wildcard.children[0])
    if prefix and suffix:
        match = str.__contains__
    elif suffix:
        match = str.startswith
    elif prefix:
        match = str.endswith
    else:
        match = operator.eq
    return lambda ev, env: match(value(ev, env), core(ev, env))


def _paren_formula(node: ParseNode) -> Run:
    inner = node.children[1]
    if inner.label in (g.CONJUNCTION, g.DISJUNCTION):
        # an operand with this value decides the group: false for a
        # conjunction, true for a disjunction
        decisive = inner.label == g.DISJUNCTION
        operands = [_formula(child) for child in inner.children
                    if child.label not in ("and", "or")]

        def connective(ev, env):
            for operand in operands:
                if operand(ev, env) == decisive:
                    return decisive
            return not decisive
        return connective
    if inner.label == g.QUASI_IMPLICATION:
        return _quasi_implication(inner)
    return _formula(inner)


def _quasi_implication(chain: ParseNode) -> Run:
    """A left-associative chain of =>/implies, <= and <=>/iff; the first two
    evaluate their right operand only when it decides the value."""
    first = _formula(chain.children[0])
    steps = [(op.label, _formula(operand))
             for op, operand in zip(chain.children[1::2], chain.children[2::2])]

    def run(ev, env):
        value = first(ev, env)
        for op, operand in steps:
            if op in ("=>", "implies"):
                value = (not value) or operand(ev, env)
            elif op == "<=":
                value = value or (not operand(ev, env))
            else:  # iff / <=>
                value = value == operand(ev, env)
        return value
    return run


def _quantified(node: ParseNode) -> Run:
    """exists or forall: binds each element in place, as `_bindings` does,
    and runs a repeat-free body (see `_repeat_free`) once per distinct
    element."""
    quantifier = node.children[0]
    literal, label_var, set_var = _binder(quantifier.children[1])
    target = _term(quantifier.children[3])
    body = _formula(node.children[1])
    distinct = _repeat_free(node.children[1])
    # a body with this value decides: true for exists, false for forall
    decisive = quantifier.label == g.EXISTS

    def run(ev, env):
        name = target(ev, env)
        elements = ev.distinct_elements(name) if distinct else ev.elements(name)
        bound = dict(env)
        for label, member in elements:
            if literal is None:
                bound[label_var] = label
            elif label != literal:
                continue
            bound[set_var] = member
            if body(ev, bound) == decisive:
                return decisive
        return not decisive
    return run


_TERMS: Dict[str, Callable[[ParseNode], Run]] = {
    g.SET_VARIABLE: _identifier,
    g.SET_CONSTANT: _identifier,
    g.SET_NAME: _set_name,
    g.ATOMIC_VALUE: _atomic_value,
    g.ENUMERATE: _enumerate,
    g.UNION: _union,
    g.PAREN_TERM: _paren_term,
    g.COLLECT: _collect,
    g.SEPARATE: _separate,
    g.TRANSITIVE_CLOSURE: _transitive_closure,
    g.RECURSION: _recursion,
    g.DECORATION: _decoration,
    g.IF_ELSE_TERM: _if_else(_term, _condition),
    g.SET_QUERY_CALL: _call,
    g.TERM_WITH_DECLS: _with_declarations(_term),
}

_FORMULAS: Dict[str, Callable[[ParseNode], Run]] = {
    g.BOOLEAN_LITERAL: _boolean_literal,
    g.NEGATED: _negated,
    g.LABEL_EQUALITY: _label_relation,
    g.LABEL_RELATIONSHIP: _label_relation,
    g.SET_EQUALITY: _set_equality,
    g.MEMBERSHIP: _membership,
    g.BOOLEAN_QUERY_CALL: _call,
    g.PAREN_FORMULA: _paren_formula,
    g.QUANTIFIED: _quantified,
    g.IF_ELSE_FORMULA: _if_else(_formula, _formula),
    g.FORMULA_WITH_DECLS: _with_declarations(_formula),
}


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------

def postprocess(result: QueryResult, store: SessionStore,
                elapsed_ms: Optional[int] = None) -> str:
    """Render a query result: generated names are inlined at their reference
    site when referenced exactly once and not cyclic through themselves,
    empty sets print as {} and atom-shaped sets as quoted values; remaining
    generated equations are listed below the result."""
    if result.is_boolean:
        text = "Result = %s" % ("true" if result.boolean else "false")
        return _with_timing(text, elapsed_ms)

    root = result.root
    system = store.system
    reachable, on_cycle = reach_and_cycles(system.equations, root)
    generated = {n for n in reachable if n.is_local()}

    ref_count: Dict[SetName, int] = {}
    for name in generated | {root}:
        for el in system.equations.get(name, []):
            ref_count[el.member] = ref_count.get(el.member, 0) + 1

    def is_empty(name: SetName) -> bool:
        return name in generated and system.equations.get(name) == []

    def atom_text(name: SetName) -> Optional[str]:
        if name not in generated:
            return None
        expr = system.equations.get(name, [])
        if len(expr) == 1 and is_empty(expr[0].member):
            return expr[0].label
        return None

    inlined = {name for name in generated
               if name != root and atom_text(name) is None
               and not is_empty(name) and ref_count.get(name, 0) == 1
               and name not in on_cycle}

    inlined_text: Dict[SetName, str] = {}

    def render_ref(name: SetName) -> str:
        if name == root:
            return "Result"
        if is_empty(name):
            return "{}"
        atom = atom_text(name)
        if atom is not None:
            return '"%s"' % atom
        if name in inlined:
            return inlined_text[name]
        if name in generated:
            return name.simple
        return name.full

    def bracket(elements: FlatExpr) -> str:
        if not elements:
            return "{}"
        parts = ["'%s':%s" % (el.label, render_ref(el.member)) for el in elements]
        return "{" + ", ".join(parts) + "}"

    def render_bracket(elements: FlatExpr) -> str:
        """The bracket of elements.  The inlined names below it, each
        referenced once, are rendered first, innermost first, so that a
        deeply nested result needs no deep recursion."""
        stack = [el.member for el in elements if el.member in inlined]
        while stack:
            below = [el.member for el in system.equations[stack[-1]]
                     if el.member in inlined and el.member not in inlined_text]
            if below:
                stack.extend(below)
            else:
                name = stack.pop()
                inlined_text[name] = bracket(system.equations[name])
        return bracket(elements)

    lines = ["Result = " + render_bracket(system.equations.get(root, []))]
    auxiliary = [n for n in sorted(generated, key=lambda n: n.simple)
                 if n != root and n not in inlined and not is_empty(n)
                 and atom_text(n) is None]
    for name in auxiliary:
        lines.append("%s = %s" % (name.simple, render_bracket(system.equations[name])))
    return _with_timing("\n\n".join(lines), elapsed_ms)


def reach_and_cycles(equations: Dict[SetName, FlatExpr], root: SetName
                     ) -> Tuple[Set[SetName], Set[SetName]]:
    """The names reachable from root (root included) and those among them
    that lie on a cycle, by one iterative pass of Tarjan's strongly
    connected components algorithm.  A name is on a cycle when its
    component has more than one name or it is its own member."""
    index: Dict[SetName, int] = {root: 0}
    low: Dict[SetName, int] = {root: 0}
    stack: List[SetName] = [root]
    on_stack: Set[SetName] = {root}
    on_cycle: Set[SetName] = set()
    work = [(root, iter(equations.get(root, ())))]
    while work:
        name, members = work[-1]
        for _, member in members:
            if member not in index:
                index[member] = low[member] = len(index)
                stack.append(member)
                on_stack.add(member)
                work.append((member, iter(equations.get(member, ()))))
                break
            if member in on_stack:
                low[name] = min(low[name], index[member])
                if member == name:
                    on_cycle.add(name)
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[name])
            if low[name] == index[name]:
                component = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == name:
                        break
                if len(component) > 1:
                    on_cycle.update(component)
    return set(index), on_cycle


def _with_timing(text: str, elapsed_ms: Optional[int]) -> str:
    if elapsed_ms is None:
        return text
    return "%s\n\nFinished in: %d ms" % (text, elapsed_ms)
