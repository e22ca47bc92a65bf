"""Query evaluation by reduction: extend the store with fresh equations and
simplify until the result is a flat bracket expression or a truth value.
An analyzed query or declaration list is generated as Python source and
compiled to functions once per analyzed shape, which the evaluator then
runs: bound variables are Python locals, quantifiers are loops that exit
at the deciding value, and class ids and equations are read in place, so
only a miss interns or fetches.

Equality compares interned class ids where both names have one and
otherwise delegates to the bisimulation module; transitive closure and
decoration have their own algorithms, and the output renderer folds
generated names back into readable nested form, keeping a name on a cycle
(`names.components`) by name.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from . import grammar as g
from .analysis import Library, analyze
from .bisim import BisimHelpers, FactStore, bisimilar
from .classids import ClassIds
from .library import PREDEFINED_DECLARATIONS
from .names import (Element, EquationSystem, FlatExpr, LOCAL_URL, NULL_LABEL, SetName,
                    WdbError, components)
from .parser import ParseNode, parse
from .store import SessionStore


class EvaluationError(WdbError):
    pass


# A compiled function: run(evaluator, env, formula, depth, *arguments) ->
# SetName | bool | str.  An environment maps a name to its value: a SetName,
# a label (str) or a Closure.
Env = Dict[str, object]
Run = Callable[..., object]
Declarations = Callable[[Optional["Evaluator"], Mapping[str, object], bool, int], Env]


@dataclass(eq=False)
class Closure:
    """A declared query bound in an environment: its compiled body, which
    takes the arguments of a call as Python arguments, and the names it reads
    from where it was declared.  It holds no evaluator state and is hashed by
    identity, so the predefined library's closures are built once per process
    and every evaluator shares them; a call memo keys its results on the
    closure (see `_Generator._call`)."""

    body: Run
    env: Env


@dataclass(eq=False)
class LetClosure(Closure):
    """A query declared by `let`, made anew each time its `let` runs.  Its
    call memo maps an argument key to a result and goes when it does."""

    memo: Dict[tuple, object] = field(default_factory=dict, repr=False)


@dataclass
class QueryResult:
    boolean: Optional[bool] = None
    root: Optional[SetName] = None

    @property
    def is_boolean(self) -> bool:
        return self.boolean is not None


@functools.lru_cache(maxsize=None)
def _predefined() -> Tuple[Library, Mapping[str, object]]:
    tree = analyze(parse(
        "library add " + ",\n".join(PREDEFINED_DECLARATIONS) + ";"))
    library = Library().extended(tree.children[1], PREDEFINED_DECLARATIONS)
    # the declarations are all queries, so running them reads no evaluator
    env = compile_declarations(library.declarations)(None, {}, False, 0)
    return library, MappingProxyType(env)


def predefined_library() -> Library:
    """The predefined library, analyzed, compiled and run once per process
    the way a user's `library add` of its declarations is.  Every evaluator
    shares it and the read-only environment of query closures it declares;
    neither is ever mutated, since `Library.extended` returns a new library
    and a `library add` runs into a copy of the environment it extends."""
    return _predefined()[0]


def _reachable_closures(env: Mapping[str, object]) -> Set[Closure]:
    """The closures env binds and those their environments capture, in turn."""
    todo = [value for value in env.values() if isinstance(value, Closure)]
    reached: Set[Closure] = set()
    while todo:
        closure = todo.pop()
        if closure not in reached:
            reached.add(closure)
            todo.extend(value for value in closure.env.values() if isinstance(value, Closure))
    return reached


class Evaluator:
    """Runs compiled queries over a session store.

    One evaluator serves a whole query session: generated equations, atom
    registry, resolved bisimulation facts and the call memo persist between
    queries.  It starts from the predefined library's environment, whose
    query closures every evaluator in the process shares; a `library add`
    extends a copy of it, so its closures are the session's own.  `memo`
    maps a library closure and its argument key to a result: the keys hold
    class ids, which are numbered per evaluator, so each evaluator keeps its
    own (a `let`-declared query keeps its own, see `LetClosure`), and
    `add_library` drops the entries of closures no call can reach.  `decorate`
    groups the graph itself and calls no library query, so no `library add`
    changes it.

    Compiled code keeps no run state here: whether it runs inside a formula
    and its call depth are Python arguments of each generated function, so
    a query that fails leaves nothing to reset.  Only inside a formula may a
    set query call return a memoized result (see `_Generator._call`).  The
    call depth counts the query bodies in progress, each weighted by the
    terms and formulas around the call that entered it.  A call that would
    take it past `max_call_depth`, a third of the interpreter's recursion
    limit, is refused before it starts: that leaves the innermost body and
    the equality kernel below it room on the stack, so no bisimulation or
    store update is cut off half-way.
    """

    def __init__(self, store: SessionStore, facts: Optional[FactStore] = None,
                 helpers: Optional[BisimHelpers] = None) -> None:
        self.store = store
        self.facts = facts or FactStore()
        self.helpers = helpers or BisimHelpers()
        self.class_ids = ClassIds(store)
        self.atoms: Dict[str, SetName] = {}
        self.empty_name: Optional[SetName] = None
        self.max_call_depth = sys.getrecursionlimit() // 3
        self.memo: Dict[tuple, object] = {}
        self.library, self.library_env = _predefined()

    # -- plumbing ------------------------------------------------------------

    def add_library(self, command: ParseNode, sources: Sequence[str]) -> None:
        """Add the declarations of an analyzed `library add` command:
        compile and run only them, in the environment of the library in
        use, which they then extend.  Raises WdbError before the library in
        use changes.  A redefined query's old closure can no longer be
        called unless a closure still in use captured it, so the `memo`
        entries of the closures that no call can reach are dropped."""
        library = self.library.extended(command, sources)
        added = library.declarations[len(self.library.declarations):]
        env = compile_declarations(added)(self, self.library_env, False, 0)
        redefined = any(env[name] is not old for name, old in self.library_env.items())
        self.library, self.library_env = library, env
        if redefined:
            live = _reachable_closures(env)
            for key in [key for key in self.memo if key[0] not in live]:
                del self.memo[key]

    def equal(self, x: SetName, y: SetName) -> bool:
        """Bisimilarity.  Names whose closures are loaded, cycles included,
        compare class ids; a pair with a name whose closure is still open
        goes to the lazy kernel."""
        ix, iy = self.class_ids.of(x), self.class_ids.of(y)
        if ix is not None and iy is not None:
            return ix == iy
        return bisimilar(x, y, self.store, self.facts, self.helpers)

    def elements(self, name: SetName) -> FlatExpr:
        """The equation of name, read in place, or fetched on a miss."""
        elements = self.store.system.equations.get(name)
        return self.store.lookup(name) if elements is None else elements

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
        boolean = query.children[0].label == "boolean"
        value = compile_query(query.children[2], boolean)(self, self.library_env, False, 0)
        if boolean:
            return QueryResult(boolean=value)
        self.store.lookup(value)  # the result equation must be present
        return QueryResult(root=value)

    # -- evaluation steps that generated code calls ----------------------------

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
        target_id = ids.of(target)
        if target_id is not None:
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
# Compiling analyzed trees to Python functions
# ---------------------------------------------------------------------------
#
# Source is generated and run through `compile()` and `exec`, as
# `collections.namedtuple` does: the step after closure generation (Feeley &
# Lapalme, Computer Languages 12(1), 1987).  Bound variables, `let` constants
# and parameters are locals, lexical addresses that CPython resolves (SICP
# §5.5.6), named by slot (v1, ...); set names are constants (k0, ...) and
# functions f0, ...; user text appears only in string literals.  A function
# f(ev, env, formula, depth, *arguments) is told whether it runs inside a
# formula and at what call depth; a query body takes its parameters as
# arguments and reads its free names from env, its closure's, on entry.
# Each node is one statement into a local, run in a fixed order, so names
# are minted in a fixed order.  A node past CPython's nesting limits (20
# nested blocks, 100 indentation levels) goes into a flat helper function
# that takes the slots in scope as arguments.

_MISSING = object()
# a node starts a helper past these depths: a node adds at most two loops
# and five indentation levels before its sub-nodes are checked
_MAX_BLOCKS, _MAX_INDENT = 15, 80
# nodes whose value is a local, a literal or a constant, with at most one statement
_INLINE = frozenset({g.SET_VARIABLE, g.SET_CONSTANT, g.SET_NAME, g.BOOLEAN_LITERAL})
_RUNTIME = {"Closure": Closure, "Element": Element, "EvaluationError": EvaluationError,
            "LetClosure": LetClosure, "SetName": SetName, "_MISSING": _MISSING}


_COMPILED: Dict[tuple, Run] = {}  # analyzed shape -> its function f0, bounded


def _compiled(key: tuple, emit: Callable[["_Generator"], str]) -> Run:
    """The function f0 of the source that emit generates, compiled once per
    key: constants, then one function per text, each compiled on its own to
    bound the compiler's memory.  The functions' globals are constants, so
    the cache holds no session state."""
    run = _COMPILED.get(key)
    if run is None:
        namespace = dict(_RUNTIME)
        for part in _generated(emit):
            exec(compile(part, "<generated query>", "exec"), namespace)
        run = namespace["f0"]
        if len(_COMPILED) >= 256:
            _COMPILED.clear()
        _COMPILED[key] = run
    return run


def compile_query(body: ParseNode, boolean: bool) -> Run:
    """The function(ev, env, formula, depth) that evaluates a query's body
    in env.  The code depends only on the labels and shape of the analyzed
    body, so a query seen before is not generated again."""
    return _compiled((boolean, body.shape()), lambda generator: (
        generator.condition if boolean else generator.value)(body))


def compile_declarations(declarations: Sequence[ParseNode]) -> Declarations:
    """A function from an environment to a new one extended by the
    declarations in order.  A query closure keeps the names its body reads,
    as they stand before its own declaration.  The key is a tuple of
    shapes, so it never equals a query's, which starts with a boolean."""
    return _compiled(tuple(d.shape() for d in declarations),
                     lambda generator: generator.declarations(
                         declarations, generator.assign("dict(env)")))


def _generated(emit: Callable[["_Generator"], str]) -> Tuple[str, ...]:
    """The source of a module whose f0 returns what emit emits.  Generation
    takes about three frames per nesting level, the parser about two, so a
    nest the parser accepts can still be refused here."""
    generator = _Generator()
    try:
        generator.function(lambda: emit(generator), ())
    except RecursionError:
        raise EvaluationError("query nested too deeply to compile") from None
    return generator.source()


def _indented(template: str) -> str:
    return template.replace("\n", "\n    ")


# the tables a function's prologue loads, each only if the function reads
# it; the code of a call, reading elements, an equality and a membership test
_TABLES = {"ids": "ev.class_ids.ids", "sigs": "ev.class_ids.signatures",
           "eqs": "ev.store.system.equations", "memo": "ev.memo"}
_REFUSE = ("if depth + {weight} > ev.max_call_depth:\n"
           "    raise EvaluationError('query calls nested too deeply')")
_KEY = ("{key} = ids.get({value})\nif {key} is None:\n    {key} = ev.class_ids.of({value})\n"
        "    if {key} is None:\n        {key} = {value}")
_CALL = "{result} = {closure}.body(ev, {closure}.env, {formula}, depth + {weight}, {values})"
_MEMOIZED_CALL = ("{key} = ({keys},)\n{result} = {memo}.get({key}, _MISSING)\n"
                  "if {result} is _MISSING:\n    " + _indented(_CALL)
                  + "\n    {memo}[{key}] = {result}")
# a set argument's key and the call, by whether the call is known to run
# inside a formula (True) or finds out from the argument `formula` (None)
_KEYS = {True: _KEY, None: "if formula:\n    " + _indented(_KEY)}
_CALLS = {True: _MEMOIZED_CALL, None: "if formula:\n    " + _indented(_MEMOIZED_CALL)
          + "\nelse:\n    " + _indented(_CALL)}
_ELEMENTS = ("{result} = eqs.get({target})\nif {result} is None:\n"
             "    {result} = ev.elements({target})")
_EQUAL = ("{left} = ids.get({lhs})\n{right} = ids.get({rhs})\n"
          "if {left} is not None and {right} is not None:\n    {result} = {left} == {right}\n"
          "else:\n    {result} = ev.equal({lhs}, {rhs})")
_MEMBER = ("{target_id} = ids.get({target})\n{member_id} = ids.get({member})\n"
           "if {target_id} is not None and {member_id} is not None:\n"
           "    {result} = ({label}, {member_id}) in sigs[{target_id}]\n"
           "else:\n    {result} = ev.eval_membership({label}, {member}, {target})")
# a label matched against a pattern, by whether the pattern has a leading
# and a trailing star
_MATCHES = {(True, True): "{core} in {value}", (False, True): "{value}.startswith({core})",
            (True, False): "{value}.endswith({core})", (False, False): "{value} == {core}"}


class _Function:
    """One generated function: its lines and its depth of indentation and
    of loops.  It takes ev, env, formula, depth and its arguments: a query
    body's parameters, or the slots in scope where a helper is called.  It
    reads the free names of the body from env on entry, and loads the
    `_TABLES` its lines read."""

    def __init__(self, name: str, arguments: Tuple[str, ...]) -> None:
        self.name, self.arguments = name, arguments
        self.lines: List[str] = []
        self.indent, self.blocks = 1, 0
        self.free: Dict[str, str] = {}  # identifier -> slot
        self.tables: Set[str] = set()

    def source(self) -> str:
        head = ["def %s(%s):" % (self.name, ", ".join(
            ("ev", "env", "formula", "depth") + self.arguments))]
        head += ["    %s = env[%r]" % (slot, name) for name, slot in self.free.items()]
        head += ["    %s = %s" % (table, load) for table, load in _TABLES.items()
                 if table in self.tables]
        return "\n".join(head + self.lines) + "\n"


class _Generator:
    """Generates the source of one module.  `scope` maps each identifier in
    scope to its slot.  `let_queries` holds the identifiers that name a
    `let`-declared query where the code is, in scope or free in a body.
    `formula` is True where the node is known to run inside a formula, and
    None where the code reads the argument `formula`."""

    def __init__(self) -> None:
        self.functions: List[_Function] = []
        self.constants: Dict[SetName, str] = {}
        self.slots = 0
        self.fn: Optional[_Function] = None
        self.scope: Dict[str, str] = {}
        self.let_queries: Set[str] = set()
        self.formula: Optional[bool] = None
        # blocks in progress: function, loop, scope to restore, `with` value
        self.open: List[Tuple[_Function, bool, Optional[Dict[str, str]], str]] = []

    def source(self) -> Tuple[str, ...]:
        constants = "".join("%s = SetName(%r, %r)\n" % (constant, name.url, name.simple)
                            for name, constant in self.constants.items())
        return (constants, *(function.source() for function in self.functions))

    def slot(self) -> str:
        self.slots += 1
        return "v%d" % self.slots

    def code(self, template: str, **fields: object) -> None:
        indent = "    " * self.fn.indent
        text = template.format(**fields) if fields else template
        self.fn.lines.append(indent + text.replace("\n", "\n" + indent))

    def assign(self, expression: str) -> str:
        target = self.slot()
        self.code("%s = %s" % (target, expression))
        return target

    def result(self, template: str, **fields: object) -> str:
        """A new local, set by the code of template, which names it result."""
        result = self.slot()
        self.code(template, result=result, **fields)
        return result

    def block(self, head: str, loop: bool = False, scoped: bool = False,
              value: str = "") -> "_Generator":
        """Open a block under head until the `with` statement ends, which
        binds value; a scoped block binds names in a scope of its own."""
        self.code(head)
        self.fn.indent += 1
        self.fn.blocks += loop
        self.open.append((self.fn, loop, self.scope if scoped else None, value))
        if scoped:
            self.scope = dict(self.scope)
        return self

    def __enter__(self) -> str:
        return self.open[-1][3]

    def __exit__(self, *exc_info) -> None:
        function, loop, scope, _ = self.open.pop()
        function.indent -= 1
        function.blocks -= loop
        if scope is not None:
            self.scope = scope

    def var(self, name: str) -> str:
        """The slot of an identifier in scope, or of a free name of the body."""
        slot = self.scope.get(name) or self.fn.free.get(name)
        if slot is None:
            slot = self.fn.free[name] = self.slot()
        return slot

    def label(self, node: ParseNode) -> str:
        if node.label == g.LABEL_VALUE:
            return repr(node.children[0].label.strip("'"))
        if node.label in (g.LABEL_VARIABLE, g.LABEL_CONSTANT):
            return self.var(node.identifier_text())
        raise EvaluationError("cannot evaluate %s as a label" % node.label)

    def elements(self, node: ParseNode) -> str:
        """A local holding the elements of node's value."""
        target = self.value(node)
        self.fn.tables.add("eqs")
        return self.result(_ELEMENTS, target=target)

    def function(self, emit: Callable[[], str], parameters: Optional[Sequence[str]] = None,
                 formula: Optional[bool] = None) -> _Function:
        """A new function that returns what emit emits: a body whose scope
        is its parameters, or, without parameters, a helper that takes the
        slots in scope."""
        saved = self.fn, self.scope, self.formula
        if parameters is None:
            arguments = tuple(dict.fromkeys(self.scope.values()))
        else:
            arguments = tuple(self.slot() for _ in parameters)
            self.scope, self.formula = dict(zip(parameters, arguments)), formula
        function = self.fn = _Function("f%d" % len(self.functions), arguments)
        self.functions.append(function)
        function.lines.append("    return " + emit())
        self.fn, self.scope, self.formula = saved
        return function

    def value(self, node: ParseNode) -> str:
        """Emit node's statements; return an expression for its value that
        can be read again: a local, a literal or a constant."""
        emit = _EMITTERS.get(node.label)
        if emit is None:
            raise EvaluationError("cannot evaluate %s" % node.label)
        if node.label in _INLINE or (self.fn.blocks <= _MAX_BLOCKS
                                     and self.fn.indent <= _MAX_INDENT):
            return emit(self, node)
        helper = self.function(lambda: emit(self, node))
        for name in helper.free:  # so that a closure's body keeps them
            self.var(name)
        return self.assign("%s(%s)" % (helper.name, ", ".join(
            ("ev", "env", self.formula_argument(), "depth") + helper.arguments)))

    def formula_argument(self) -> str:
        """The value of `formula` for code called from here."""
        return "True" if self.formula else "formula"

    def condition(self, node: ParseNode) -> str:
        """A formula met in a term or as a boolean query: the code under it
        is known to run inside a formula."""
        saved, self.formula = self.formula, True
        result = self.value(node)
        self.formula = saved
        return result

    def declarations(self, declarations: Sequence[ParseNode], out: str = "") -> str:
        """Bind each declaration in scope in order, and in the dict out.
        Without out they are a `let`'s, whose queries are `LetClosure`s."""
        for decl in declarations:
            let_query = not out and decl.label in (g.SET_QUERY_DECL, g.BOOLEAN_QUERY_DECL)
            if decl.label == g.SET_CONSTANT_DECL:
                value = self.assign(self.value(decl.children[-1]))
            elif decl.label == g.LABEL_CONSTANT_DECL:
                value = self.assign(self.label(decl.children[-1]))
            elif decl.label in (g.SET_QUERY_DECL, g.BOOLEAN_QUERY_DECL):
                parameters = tuple(variable.children[1].identifier_text()
                                   for variable in decl.children[4].children
                                   if variable.label == g.VARIABLE)
                # a boolean query is called inside formulas only
                body = self.function(lambda: self.value(decl.children[-1]), parameters,
                                     True if decl.label == g.BOOLEAN_QUERY_DECL else None)
                captured = ", ".join("%r: %s" % (free, self.var(free)) for free in body.free)
                value = self.assign("%s(%s, {%s})" % (
                    "LetClosure" if let_query else "Closure", body.name, captured))
            else:
                continue
            name = decl.children[2].identifier_text()
            self.scope[name] = value
            if let_query:
                self.let_queries.add(name)
            else:
                self.let_queries.discard(name)
            if out:
                self.code("%s[%r] = %s" % (out, name, value))
        return out

    def binding(self, pair: ParseNode, elements: str) -> "_Generator":
        """Open a loop over elements that binds the variable pair l:x to each
        element it matches; the `with` statement binds the element's slot."""
        label_part, _, set_part = pair.children
        element, member = self.slot(), self.slot()
        self.block("for %s in %s:" % (element, elements), loop=True, scoped=True, value=element)
        if label_part.label == g.LABEL_VALUE:
            self.code("if %s[0] != %s:\n    continue\n%s = %s[1]"
                      % (element, self.label(label_part), member, element))
        else:
            label = self.slot()
            self.code("%s, %s = %s" % (label, member, element))
            self.scope[label_part.identifier_text()] = label
        self.scope[set_part.identifier_text()] = member
        return self

    def _set_name(self, node: ParseNode) -> str:
        url, _, simple = node.children[0].label.rpartition("#")
        constant = self.constants.setdefault(SetName(url, simple), "k%d" % len(self.constants))
        if url == LOCAL_URL:  # a session set must have an equation already
            self.code("ev.elements(%s)" % constant)
        return constant

    def _enumerate(self, node: ParseNode) -> str:
        items = []  # a loop, not a comprehension: a frame less per nesting level
        for lt in node.children[1].children:
            if lt.label == g.LABELLED_TERM:
                items.append("Element(%s, %s)" % (self.label(lt.children[0]),
                                                   self.value(lt.children[2])))
        return self.assign("ev.define_fresh([%s])" % ", ".join(items))

    def _union(self, node: ParseNode) -> str:
        """The union of a set's members or of a group of sets, or a term."""
        if node.label == g.PAREN_TERM and node.children[1].label != g.MULTIPLE_UNION:
            return self.value(node.children[1])
        if node.label == g.UNION:
            target, label, member = self.elements(node.children[1]), self.slot(), self.slot()
            combined = self.assign("[]")
            self.code("for %s, %s in %s:\n    %s.extend(ev.elements(%s))"
                      % (label, member, target, combined, member))
        else:
            combined = self.assign("[]")
            for child in node.children[1].children:
                if child.label not in ("U", "union"):
                    self.code("%s.extend(ev.elements(%s))" % (combined, self.value(child)))
        return self.assign("ev.define_fresh(%s)" % combined)

    def _selection(self, node: ParseNode) -> str:
        """collect or separate: a loop over the target that keeps the
        template's value, or the element, where the condition holds."""
        collect = node.label == g.COLLECT
        if collect:
            pair, target = node.children[4], node.children[6]
            condition = node.children[8] if node.children[7].label == "and" else None
        else:
            pair, target, condition = node.children[2], node.children[4], node.children[6]
        elements, out = self.elements(target), self.assign("[]")
        with self.binding(pair, elements) as element:
            if condition is not None:
                self.code("if not %s:\n    continue" % self.condition(condition))
            if collect:
                template = node.children[2]
                label = self.label(template.children[0])
                element = "Element(%s, %s)" % (label, self.value(template.children[2]))
            self.code("%s.append(%s)" % (out, element))
        return self.assign("ev.define_fresh(%s)" % out)

    def _recursion(self, node: ParseNode) -> str:
        """The least fixpoint: each stage binds the recursion variable to the
        elements kept so far and adds those whose condition then holds."""
        rec_var = node.children[1].identifier_text()
        pool = self.elements(node.children[5])
        current, kept, added, stage = (self.assign("[]"), self.assign("set()"),
                                       self.slot(), self.slot())
        with self.block("while True:", loop=True, scoped=True):
            self.scope[rec_var] = stage
            self.code("%s = ev.define_fresh(list(%s), %r)\n%s = False"
                      % (stage, current, rec_var, added))
            with self.binding(node.children[3], pool) as element:
                self.code("if %s in %s:\n    continue" % (element, kept))
                with self.block("if %s:" % self.condition(node.children[7])):
                    self.code("%s.append(%s)\n%s.add(%s)\n%s = True"
                              % (current, element, kept, element, added))
            self.code("if not %s:\n    break" % added)
        return stage

    def _if_else(self, node: ParseNode) -> str:
        result = self.slot()
        with self.block("if %s:" % self.condition(node.children[1])):
            self.code("%s = %s" % (result, self.value(node.children[3])))
        with self.block("else:"):
            self.code("%s = %s" % (result, self.value(node.children[5])))
        return result

    def _with_declarations(self, node: ParseNode) -> str:
        saved = self.scope, self.let_queries
        self.scope, self.let_queries = dict(self.scope), set(self.let_queries)
        self.declarations(node.children[1].children)
        result = self.value(node.children[3])
        self.scope, self.let_queries = saved
        return result

    def _call(self, node: ParseNode) -> str:
        """Call a declared query; inside a formula, memoized on what its
        arguments denote.  Equations are write-once and the language is
        extensional, so the key holds a set argument's class id, or the name
        when it has none, and a label argument's text.  A library query's
        results go to the evaluator's `memo`, keyed on the closure too; a
        `let`-declared query's go to its own, which goes with it.  Outside
        formulas a set call runs afresh: a reused result name would change
        the printed output.  A call that raises stores nothing.  A call whose
        body would take the call depth past `max_call_depth` is refused on
        entry."""
        weight = 1 + _nesting(node)
        self.code(_REFUSE, weight=weight)
        name = node.children[1].identifier_text()
        closure = self.var(name)
        if name in self.let_queries:
            memo, keys = closure + ".memo", []
        else:
            self.fn.tables.add("memo")
            memo, keys = "memo", [closure]
        known = self.formula
        values = []
        for argument in node.children[3].children:
            if argument.label in g.TERM_CATEGORIES:
                value, key = self.value(argument), self.slot()
                self.code(_KEYS[known], key=key, value=value)
                self.fn.tables.add("ids")
            elif argument.label != ",":
                value = key = self.label(argument)
            else:
                continue
            values.append(value)
            keys.append(key)
        return self.result(_CALLS[known], closure=closure, key=self.slot(), weight=weight,
                           memo=memo, formula=self.formula_argument(),
                           values=", ".join(values), keys=", ".join(keys))

    def _set_equality(self, node: ParseNode) -> str:
        """Class ids read in place decide; else `Evaluator.equal`."""
        lhs, rhs = self.value(node.children[0]), self.value(node.children[2])
        self.fn.tables.add("ids")
        return self.result(_EQUAL, lhs=lhs, rhs=rhs, left=self.slot(), right=self.slot())

    def _membership(self, node: ParseNode) -> str:
        """l:x in y reads the class-id tables in place when x and y have
        ids; else `Evaluator.eval_membership` decides."""
        label_node, _, member_node = node.children[0].children
        label, member = self.label(label_node), self.value(member_node)
        target = self.value(node.children[2])
        self.fn.tables.update(("ids", "sigs"))
        return self.result(_MEMBER, label=label, member=member, target=target,
                           member_id=self.slot(), target_id=self.slot())

    def _label_relation(self, node: ParseNode) -> str:
        """A label compared with a label or matched against a pattern, a
        literal such as 'Rob*' or '*base*' or a label name such as *l*."""
        lhs, op_node, rhs = node.children
        if g.WILDCARD_LABEL not in (lhs.label, rhs.label):
            operator = op_node.label if node.label == g.LABEL_RELATIONSHIP else "=="
            return self.assign("%s %s %s" % (self.label(lhs), operator, self.label(rhs)))
        wildcard, other = (lhs, rhs) if lhs.label == g.WILDCARD_LABEL else (rhs, lhs)
        value = self.label(other)
        if len(wildcard.children) == 1:
            text = wildcard.children[0].label.strip("'")
            stars = text.startswith("*"), text.endswith("*") and len(text) > 1
            core = repr(text.strip("*"))
        else:
            stars = wildcard.children[0].label == "*", wildcard.children[-1].label == "*"
            core = self.label(wildcard.children[1] if stars[0] else wildcard.children[0])
        return self.assign(_MATCHES[stars].format(core=core, value=value))

    def _paren_formula(self, node: ParseNode) -> str:
        """A parenthesized formula.  Each further operand of a connective
        runs while the value so far leaves the group open: true for a
        conjunction, false for a disjunction.  In a left-associative chain
        of =>/implies, <= and <=>/iff, the first two evaluate their right
        operand only when it decides the value."""
        inner = node.children[1]
        if inner.label not in (g.CONJUNCTION, g.DISJUNCTION, g.QUASI_IMPLICATION):
            return self.value(inner)
        result = self.assign(self.value(inner.children[0]))
        for op, operand in zip(inner.children[1::2], inner.children[2::2]):
            if op.label in ("and", "=>", "implies"):
                with self.block("if %s:" % result):
                    self.code("%s = %s" % (result, self.value(operand)))
                if op.label != "and":
                    self.code("else:\n    %s = True" % result)
            elif op.label in ("or", "<="):
                with self.block("if not %s:" % result):
                    value = self.value(operand)
                    self.code("%s = %s%s" % (result, "" if op.label == "or" else "not ", value))
            else:  # iff / <=>
                self.code("%s = %s == %s" % (result, result, self.value(operand)))
        return result

    def _quantified(self, node: ParseNode) -> str:
        """exists or forall: a loop over the elements, repeats included, that
        exits at the deciding value."""
        quantifier, body = node.children
        decisive = quantifier.label == g.EXISTS
        elements = self.elements(quantifier.children[3])
        result = self.assign(repr(not decisive))
        with self.binding(quantifier.children[1], elements):
            value = self.value(body)
            self.code("if %s%s:\n    %s = %r\n    break"
                      % ("" if decisive else "not ", value, result, decisive))
        return result


def _emitting(template: str, *children: int) -> Callable[[_Generator, ParseNode], str]:
    """The emitter of template applied to the values of the children at
    these positions, in order."""
    def emit(generator: _Generator, node: ParseNode) -> str:
        values = []  # a loop, not a comprehension: a frame less per nesting level
        for index in children:
            values.append(generator.value(node.children[index]))
        return generator.assign(template.format(*values))
    return emit


_EMITTERS: Dict[str, Callable[[_Generator, ParseNode], str]] = {
    g.SET_VARIABLE: lambda generator, node: generator.var(node.identifier_text()),
    g.SET_CONSTANT: lambda generator, node: generator.var(node.identifier_text()),
    g.SET_NAME: _Generator._set_name,
    g.ATOMIC_VALUE: lambda generator, node: generator.assign(
        "ev.atom(%r)" % node.children[0].label.strip('"')),
    g.ENUMERATE: _Generator._enumerate,
    g.UNION: _Generator._union, g.PAREN_TERM: _Generator._union,
    g.COLLECT: _Generator._selection, g.SEPARATE: _Generator._selection,
    g.RECURSION: _Generator._recursion,
    g.TRANSITIVE_CLOSURE: _emitting("ev.eval_tc({})", 1),
    g.DECORATION: _emitting("ev.eval_decorate({}, {})", 2, 4),
    g.IF_ELSE_TERM: _Generator._if_else, g.IF_ELSE_FORMULA: _Generator._if_else,
    g.SET_QUERY_CALL: _Generator._call, g.BOOLEAN_QUERY_CALL: _Generator._call,
    g.TERM_WITH_DECLS: _Generator._with_declarations,
    g.FORMULA_WITH_DECLS: _Generator._with_declarations,
    g.BOOLEAN_LITERAL: lambda generator, node: repr(node.children[0].label == "true"),
    g.NEGATED: _emitting("not {}", 1),
    g.LABEL_EQUALITY: _Generator._label_relation,
    g.LABEL_RELATIONSHIP: _Generator._label_relation,
    g.SET_EQUALITY: _Generator._set_equality, g.MEMBERSHIP: _Generator._membership,
    g.PAREN_FORMULA: _Generator._paren_formula, g.QUANTIFIED: _Generator._quantified,
}


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
    that lie on a cycle: a name is on a cycle when its strongly connected
    component has more than one name or it is its own member."""
    members: Dict[SetName, List[SetName]] = {}  # of each name the walk reaches
    on_cycle: Set[SetName] = set()
    for component in components(root, lambda n: members.setdefault(
            n, [m for _, m in equations.get(n, ())])):
        if len(component) > 1 or component[0] in members[component[0]]:
            on_cycle.update(component)
    return set(members), on_cycle


def _with_timing(text: str, elapsed_ms: Optional[int]) -> str:
    if elapsed_ms is None:
        return text
    return "%s\n\nFinished in: %d ms" % (text, elapsed_ms)
