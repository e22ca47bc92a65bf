"""Query evaluation by reduction: extend the store with fresh equations and
simplify until the result is a flat bracket expression or a truth value.

Equality compares interned class ids where both names have one and
otherwise delegates to the bisimulation module; separation, collection,
recursion, transitive closure and decoration have their own algorithms, and
the output renderer folds generated names back into readable nested form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


# environment bindings: ("set", SetName) | ("label", str) | query closures
@dataclass
class Closure:
    result: str                       # "set" | "boolean"
    parameters: List[Tuple[str, str]]  # (kind, name)
    body: ParseNode
    env: Dict[str, object]
    # call memo: argument key -> result; see Evaluator.eval_call
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
def predefined_library() -> Library:
    """The predefined library, compiled once per process the way a user's
    `library add` of its declarations is.  Every evaluator shares it; it is
    never mutated, since `Library.extended` returns a new library."""
    tree = analyze(parse(
        "library add " + ",\n".join(PREDEFINED_DECLARATIONS) + ";"))
    return Library().extended(tree.children[1], PREDEFINED_DECLARATIONS)


class Evaluator:
    """Evaluates typed parse trees over a session store.

    One evaluator serves a whole query session: generated equations, atom
    registry and resolved bisimulation facts persist between queries.  It
    starts from the shared predefined library, whose declarations it
    evaluates into its own environment.  `decorate` groups the graph itself
    and calls no library query, so no `library add` changes it.

    `in_formula` is true while a formula is evaluated; only then may a set
    query call return a memoized result (see `eval_call`).
    """

    def __init__(self, store: SessionStore, facts: Optional[FactStore] = None,
                 helpers: Optional[BisimHelpers] = None) -> None:
        self.store = store
        self.facts = facts or FactStore()
        self.helpers = helpers or BisimHelpers()
        self.class_ids = ClassIds(store)
        self.atoms: Dict[str, SetName] = {}
        self.empty_name: Optional[SetName] = None
        self.in_formula = False
        self.library = predefined_library()
        self.library_env = self.eval_declarations(self.library.declarations, {})

    # -- plumbing ------------------------------------------------------------

    def add_library(self, command: ParseNode, sources: Sequence[str]) -> None:
        """Compile an analyzed `library add` command: evaluate only its
        declarations, in the environment of the library in use, which they
        then extend.  Raises WdbError before the library in use changes."""
        library = self.library.extended(command, sources)
        added = library.declarations[len(self.library.declarations):]
        env = self.eval_declarations(added, self.library_env)
        self.library, self.library_env = library, env

    def equal(self, x: SetName, y: SetName) -> bool:
        """Bisimilarity.  Names with class ids compare ids; a name with an id
        is well-founded, so it differs from any name that reaches a cycle.
        Everything else goes to the lazy kernel."""
        ids = self.class_ids
        ix, iy = ids.of(x), ids.of(y)
        if ix is not None and iy is not None:
            return ix == iy
        if (ix is not None and y in ids.cyclic) or (iy is not None and x in ids.cyclic):
            return False
        return bisimilar(x, y, self.store, self.facts, self.helpers)

    def elements(self, name: SetName) -> FlatExpr:
        return self.store.lookup(name)

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
        query = top_level.children[0]
        if query.label != g.QUERY:
            raise EvaluationError("not a query command")
        body = query.children[2]
        if query.children[0].label == "boolean":
            return QueryResult(boolean=self.eval_condition(body, self.library_env))
        root = self.eval_term(body, self.library_env)
        self.store.lookup(root)  # the result equation must be present
        return QueryResult(root=root)

    # -- terms -----------------------------------------------------------------

    def eval_term(self, node: ParseNode, env: Dict[str, object]) -> SetName:
        label = node.label
        if label in (g.SET_VARIABLE, g.SET_CONSTANT):
            kind, value = self._binding(env, node, ("set",))
            return value
        if label == g.SET_NAME:
            text = node.children[0].label
            url, _, simple = text.rpartition("#")
            return SetName(url, simple)
        if label == g.ATOMIC_VALUE:
            return self.atom(node.children[0].label.strip('"'))
        if label == g.ENUMERATE:
            elements: FlatExpr = []
            if node.children[1].label == g.LABELLED_TERMS:
                for lt in node.children[1].children:
                    if lt.label == g.LABELLED_TERM:
                        elements.append(self._eval_labelled_term(lt, env))
            return self.define_fresh(elements)
        if label == g.UNION:
            target = self.eval_term(node.children[1], env)
            combined: FlatExpr = []
            for _, member in self.elements(target):
                combined.extend(self.elements(member))
            return self.define_fresh(combined)
        if label == g.PAREN_TERM:
            inner = node.children[1]
            if inner.label == g.MULTIPLE_UNION:
                combined = []
                for child in inner.children:
                    if child.label not in ("U", "union"):
                        combined.extend(self.elements(self.eval_term(child, env)))
                return self.define_fresh(combined)
            return self.eval_term(inner, env)
        if label == g.COLLECT:
            return self.eval_collect(node, env)
        if label == g.SEPARATE:
            return self.eval_separate(node, env)
        if label == g.TRANSITIVE_CLOSURE:
            return self.eval_tc(self.eval_term(node.children[1], env))
        if label == g.RECURSION:
            return self.eval_recursion(node, env)
        if label == g.DECORATION:
            graph = self.eval_term(node.children[2], env)
            vertex = self.eval_term(node.children[4], env)
            return self.eval_decorate(graph, vertex)
        if label == g.IF_ELSE_TERM:
            branch = node.children[3] if self.eval_condition(node.children[1], env) \
                else node.children[5]
            return self.eval_term(branch, env)
        if label == g.SET_QUERY_CALL:
            return self.eval_call(node, env)
        if label == g.TERM_WITH_DECLS:
            inner_env = self.eval_declarations(node.children[1].children, env)
            return self.eval_term(node.children[3], inner_env)
        raise EvaluationError("cannot evaluate %s as a term" % label)

    def _binding(self, env: Dict[str, object], node: ParseNode,
                 kinds: Tuple[str, ...]):
        name = node.identifier_text()
        try:
            binding = env[name]
        except KeyError:
            raise EvaluationError("unbound identifier %s" % name)
        if isinstance(binding, Closure) or binding[0] not in kinds:
            raise EvaluationError("identifier %s has the wrong kind" % name)
        return binding

    def _eval_labelled_term(self, node: ParseNode, env: Dict[str, object]) -> Element:
        label = self.eval_label(node.children[0], env)
        member = self.eval_term(node.children[2], env)
        return Element(label, member)

    def eval_declarations(self, declarations: Sequence[ParseNode],
                          env: Dict[str, object]) -> Dict[str, object]:
        current = dict(env)
        for decl in declarations:
            if decl.label == g.SET_CONSTANT_DECL:
                name = decl.children[2].identifier_text()
                current[name] = ("set", self.eval_term(decl.children[-1], current))
            elif decl.label == g.LABEL_CONSTANT_DECL:
                name = decl.children[2].identifier_text()
                value = decl.children[-1].children[0].label.strip("'")
                current[name] = ("label", value)
            elif decl.label in (g.SET_QUERY_DECL, g.BOOLEAN_QUERY_DECL):
                name = decl.children[2].identifier_text()
                params: List[Tuple[str, str]] = []
                for variable in decl.children[4].children:
                    if variable.label == g.VARIABLE:
                        params.append((variable.children[0].label,
                                       variable.children[1].identifier_text()))
                result = "set" if decl.label == g.SET_QUERY_DECL else "boolean"
                current[name] = Closure(result, params, decl.children[-1],
                                        dict(current))
        return current

    def eval_call(self, node: ParseNode, env: Dict[str, object]):
        """Call a declared query; inside a formula, memoized on what its
        arguments denote.

        The language is extensional and equations are write-once, so a
        call's value depends only on the classes of its set arguments and
        the text of its label arguments.  The key holds a set argument's
        class id, or the name itself when it has none.  Boolean calls occur
        only in formulas, so they are always memoized.  Outside formulas a
        set call is evaluated afresh: a result name reused in a query's
        answer would change the printed output.  A call that raises stores
        nothing."""
        name = node.children[1].identifier_text()
        closure = env.get(name)
        if not isinstance(closure, Closure):
            raise EvaluationError("%s is not a declared query" % name)
        params = [c for c in node.children[3].children if c.label != ","]
        memoized = self.in_formula
        call_env = dict(closure.env)
        key = []
        for (kind, pname), arg in zip(closure.parameters, params):
            if kind == "set":
                value = self.eval_term(arg, env)
                if memoized:
                    cid = self.class_ids.of(value)
                    key.append(value if cid is None else cid)
            else:
                value = self.eval_label(arg, env)
                key.append(value)
            call_env[pname] = (kind, value)
        evaluate = self.eval_term if closure.result == "set" else self.eval_formula
        if not memoized:
            return evaluate(closure.body, call_env)
        memo_key = tuple(key)
        if memo_key in closure.memo:
            return closure.memo[memo_key]
        result = evaluate(closure.body, call_env)
        closure.memo[memo_key] = result
        return result

    def eval_condition(self, node: ParseNode, env: Dict[str, object]) -> bool:
        """Evaluate a formula met in a term or as a boolean query, marking
        the evaluation as inside a formula until it returns or raises."""
        if self.in_formula:
            return self.eval_formula(node, env)
        self.in_formula = True
        try:
            return self.eval_formula(node, env)
        finally:
            self.in_formula = False

    # -- iteration constructs ---------------------------------------------------

    def _pair_binder(self, pair: ParseNode):
        """(literal label or None, label variable or None, set variable)."""
        label_part, _, set_part = pair.children
        if label_part.label == g.LABEL_VALUE:
            return label_part.children[0].label.strip("'"), None, \
                set_part.identifier_text()
        return None, label_part.identifier_text(), set_part.identifier_text()

    def _iterate(self, pair: ParseNode, elements: FlatExpr, env: Dict[str, object]):
        """Bind the variable pair against each matching element."""
        literal, label_var, set_var = self._pair_binder(pair)
        for element in elements:
            if literal is not None and element.label != literal:
                continue
            bound = dict(env)
            if label_var is not None:
                bound[label_var] = ("label", element.label)
            bound[set_var] = ("set", element.member)
            yield element, bound

    def eval_separate(self, node: ParseNode, env: Dict[str, object]) -> SetName:
        target = self.eval_term(node.children[4], env)
        condition = node.children[6]
        kept = [element
                for element, bound in self._iterate(node.children[2],
                                                    list(self.elements(target)), env)
                if self.eval_condition(condition, bound)]
        return self.define_fresh(kept)

    def eval_collect(self, node: ParseNode, env: Dict[str, object]) -> SetName:
        template = node.children[2]
        target = self.eval_term(node.children[6], env)
        condition = node.children[8] if node.children[7].label == "and" else None
        out: FlatExpr = []
        for _, bound in self._iterate(node.children[4],
                                      list(self.elements(target)), env):
            if condition is None or self.eval_condition(condition, bound):
                out.append(self._eval_labelled_term(template, bound))
        return self.define_fresh(out)

    def eval_recursion(self, node: ParseNode, env: Dict[str, object]) -> SetName:
        rec_var = node.children[1].identifier_text()
        pair = node.children[3]
        target = self.eval_term(node.children[5], env)
        condition = node.children[7]
        pool = list(self.elements(target))

        current: List[Element] = []
        current_set: Set[Element] = set()
        while True:
            stage_name = self.define_fresh(list(current), hint=rec_var)
            stage_env = dict(env)
            stage_env[rec_var] = ("set", stage_name)
            added = False
            for element, bound in self._iterate(pair, pool, stage_env):
                if element in current_set:
                    continue
                if self.eval_condition(condition, bound):
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

    # -- membership, labels and formulas ------------------------------------------

    def eval_membership(self, label: str, member: SetName, target: SetName) -> bool:
        ids = self.class_ids
        target_id = ids.of(target)
        if target_id is not None:
            member_id = ids.of(member)
            if member_id is not None:
                return (label, member_id) in ids.signatures[target_id]
            if member in ids.cyclic:
                return False
        return any(el.label == label and self.equal(el.member, member)
                   for el in self.elements(target))

    def eval_label(self, node: ParseNode, env: Dict[str, object]) -> str:
        if node.label == g.LABEL_VALUE:
            return node.children[0].label.strip("'")
        if node.label in (g.LABEL_VARIABLE, g.LABEL_CONSTANT):
            _, value = self._binding(env, node, ("label",))
            return value
        raise EvaluationError("cannot evaluate %s as a label" % node.label)

    def _wildcard_parts(self, node: ParseNode, env: Dict[str, object]) -> Tuple[bool, str, bool]:
        if len(node.children) == 1:
            text = node.children[0].label.strip("'")
            prefix = text.startswith("*")
            suffix = text.endswith("*") and len(text) > 1
            return prefix, text.strip("*"), suffix
        prefix = node.children[0].label == "*"
        suffix = node.children[-1].label == "*"
        name_node = node.children[1] if prefix else node.children[0]
        return prefix, self.eval_label(name_node, env), suffix

    def match_wildcard(self, value: str, prefix_star: bool, core: str,
                       suffix_star: bool) -> bool:
        if prefix_star and suffix_star:
            return core in value
        if suffix_star:
            return value.startswith(core)
        if prefix_star:
            return value.endswith(core)
        return value == core

    def eval_label_relation(self, node: ParseNode, env: Dict[str, object]) -> bool:
        lhs, op_node, rhs = node.children
        op = op_node.label
        if node.label == g.LABEL_EQUALITY:
            if lhs.label == g.WILDCARD_LABEL or rhs.label == g.WILDCARD_LABEL:
                wildcard, other = (lhs, rhs) if lhs.label == g.WILDCARD_LABEL \
                    else (rhs, lhs)
                value = self.eval_label(other, env)
                return self.match_wildcard(value, *self._wildcard_parts(wildcard, env))
            return self.eval_label(lhs, env) == self.eval_label(rhs, env)
        left, right = self.eval_label(lhs, env), self.eval_label(rhs, env)
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        return left >= right

    def eval_formula(self, node: ParseNode, env: Dict[str, object]) -> bool:
        label = node.label
        if label == g.BOOLEAN_LITERAL:
            return node.children[0].label == "true"
        if label == g.NEGATED:
            return not self.eval_formula(node.children[1], env)
        if label in (g.LABEL_EQUALITY, g.LABEL_RELATIONSHIP):
            return self.eval_label_relation(node, env)
        if label == g.SET_EQUALITY:
            lhs = self.eval_term(node.children[0], env)
            rhs = self.eval_term(node.children[2], env)
            return self.equal(lhs, rhs)
        if label == g.MEMBERSHIP:
            lt = node.children[0]
            element_label = self.eval_label(lt.children[0], env)
            member = self.eval_term(lt.children[2], env)
            target = self.eval_term(node.children[2], env)
            return self.eval_membership(element_label, member, target)
        if label == g.BOOLEAN_QUERY_CALL:
            return self.eval_call(node, env)
        if label == g.PAREN_FORMULA:
            return self._eval_formula_group(node.children[1], env)
        if label == g.QUANTIFIED:
            return self._eval_quantified(node, env)
        if label == g.IF_ELSE_FORMULA:
            branch = node.children[3] if self.eval_formula(node.children[1], env) \
                else node.children[5]
            return self.eval_formula(branch, env)
        if label == g.FORMULA_WITH_DECLS:
            inner_env = self.eval_declarations(node.children[1].children, env)
            return self.eval_formula(node.children[3], inner_env)
        raise EvaluationError("cannot evaluate %s as a formula" % label)

    def _eval_formula_group(self, inner: ParseNode, env: Dict[str, object]) -> bool:
        if inner.label == g.CONJUNCTION:
            return all(self.eval_formula(child, env)
                       for child in inner.children if child.label != "and")
        if inner.label == g.DISJUNCTION:
            return any(self.eval_formula(child, env)
                       for child in inner.children if child.label != "or")
        if inner.label == g.QUASI_IMPLICATION:
            value = self.eval_formula(inner.children[0], env)
            index = 1
            while index < len(inner.children):
                op = inner.children[index].label
                operand = inner.children[index + 1]
                if op in ("=>", "implies"):
                    value = (not value) or self.eval_formula(operand, env)
                elif op == "<=":
                    value = value or (not self.eval_formula(operand, env))
                else:  # iff / <=>
                    value = value == self.eval_formula(operand, env)
                index += 2
            return value
        return self.eval_formula(inner, env)

    def _eval_quantified(self, node: ParseNode, env: Dict[str, object]) -> bool:
        quantifier = node.children[0]
        body = node.children[1]
        target = self.eval_term(quantifier.children[3], env)
        matches = self._iterate(quantifier.children[1],
                                list(self.elements(target)), env)
        if quantifier.label == g.FORALL:
            return all(self.eval_formula(body, bound) for _, bound in matches)
        return any(self.eval_formula(body, bound) for _, bound in matches)

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
        ordered = sorted(names, key=lambda n: n.full)
        smallest: Dict[int, SetName] = {}
        for name in ordered:
            if ids[name] is not None:
                smallest.setdefault(ids[name], name)
        unsettled = [name for name in ordered if ids[name] is None]
        canonical: Dict[SetName, SetName] = {}
        for name in names:
            best = smallest.get(ids[name])
            for candidate in unsettled if best is not None else ordered:
                if best is not None and candidate.full >= best.full:
                    break
                if self.equal(candidate, name):
                    best = candidate
                    break
            canonical[name] = best
        return canonical


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

    def render_ref(name: SetName) -> str:
        if name == root:
            return "Result"
        if is_empty(name):
            return "{}"
        atom = atom_text(name)
        if atom is not None:
            return '"%s"' % atom
        if name in inlined:
            return render_bracket(system.equations[name])
        if name in generated:
            return name.simple
        return name.full

    def render_bracket(elements: FlatExpr) -> str:
        if not elements:
            return "{}"
        parts = ["'%s':%s" % (el.label, render_ref(el.member)) for el in elements]
        return "{" + ", ".join(parts) + "}"

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
