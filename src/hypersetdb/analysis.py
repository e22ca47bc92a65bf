"""Contextual analysis: deciding well-typedness of parsed queries.

Every identifier occurrence must be covered by a declaration (searched by
walking up the parse tree, rightmost declaration first), occurrences are then
relabelled from their declarations, the rest of the tree is relabelled
bottom-up against the grammar forks, and binding constructs are checked to be
properly bounded (no variable may sneak into the very term that bounds it).

The analysis makes no traversal of the tree: it reads the identifier uses,
the postorder and the binders that the parser recorded during its descent,
and relabelling is one pass of fork lookups over the postorder.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import grammar as g
from .parser import ParseNode, ParseResult, reprint


@dataclass(frozen=True)
class QueryType:
    """Type of a declared query name: parameter kinds and result kind."""

    parameters: Tuple[str, ...]  # each "set" | "label"
    result: str                  # "set" | "boolean"


# kinds of non-query declarations
SET_CONSTANT_KIND = "set constant"
LABEL_CONSTANT_KIND = "label constant"
SET_VARIABLE_KIND = "set variable"
LABEL_VARIABLE_KIND = "label variable"

DeclKind = Union[str, QueryType]

_KIND_CATEGORY = {
    SET_CONSTANT_KIND: g.SET_CONSTANT,
    LABEL_CONSTANT_KIND: g.LABEL_CONSTANT,
    SET_VARIABLE_KIND: g.SET_VARIABLE,
    LABEL_VARIABLE_KIND: g.LABEL_VARIABLE,
}


@dataclass
class DeclTriple:
    """Result of the declaration search for one identifier occurrence."""

    binder: Optional[ParseNode]
    declaration: Optional[ParseNode]
    kind: Optional[DeclKind] = None

    @property
    def declared(self) -> bool:
        return self.binder is not None


@dataclass
class AnalysisItem:
    position: int
    message: str
    name: Optional[str] = None

    def render(self) -> str:
        return "Error at character %d, %s" % (self.position + 1, self.message)


class AnalysisError(Exception):
    def __init__(self, items: List[AnalysisItem]) -> None:
        super().__init__("; ".join(item.render() for item in items))
        self.items = items


def _declaration_kind(decl: ParseNode) -> Tuple[str, DeclKind]:
    """Name and kind declared by one declaration node."""
    name = decl.children[2].identifier_text()
    if decl.label == g.SET_CONSTANT_DECL:
        return name, SET_CONSTANT_KIND
    if decl.label == g.LABEL_CONSTANT_DECL:
        return name, LABEL_CONSTANT_KIND
    params = _parameter_kinds(decl.children[4])
    if decl.label == g.SET_QUERY_DECL:
        return name, QueryType(params, "set")
    return name, QueryType(params, "boolean")


def _parameter_kinds(variables: ParseNode) -> Tuple[str, ...]:
    kinds = []
    for child in variables.children:
        if child.label == g.VARIABLE:
            kinds.append("set" if child.children[0].label == "set" else "label")
    return tuple(kinds)


def _pair_idns(pair: ParseNode) -> List[Tuple[ParseNode, DeclKind]]:
    """Identifier declarations contributed by a variable pair, left to right."""
    out: List[Tuple[ParseNode, DeclKind]] = []
    label_part, _, set_part = pair.children
    if label_part.label == g.LABEL_VARIABLE:
        out.append((label_part, LABEL_VARIABLE_KIND))
    out.append((set_part, SET_VARIABLE_KIND))
    return out


# binders whose second child is a declaration list, each declaration seeing
# only those to its left
_DECLARATION_LISTS = (g.TERM_WITH_DECLS, g.FORMULA_WITH_DECLS, g.LIBRARY_COMMAND)


def binder_declarations(bn: ParseNode) -> List[Tuple[ParseNode, str, DeclKind]]:
    """The declaration sites (IDN, declared name, kind) of a binder node in
    source order."""
    out: List[Tuple[ParseNode, str, DeclKind]] = []
    if bn.label in _DECLARATION_LISTS:
        for decl in bn.children[1].children:
            if decl.label in g.DECLARATION_CATEGORIES:
                name, kind = _declaration_kind(decl)
                out.append((decl, name, kind))
    elif bn.label in (g.COLLECT, g.SEPARATE):
        pair = bn.children[4] if bn.label == g.COLLECT else bn.children[2]
        for idn, kind in _pair_idns(pair):
            out.append((idn, idn.identifier_text(), kind))
    elif bn.label == g.RECURSION:
        var = bn.children[1]
        out.append((var, var.identifier_text(), SET_VARIABLE_KIND))
        for idn, kind in _pair_idns(bn.children[3]):
            out.append((idn, idn.identifier_text(), kind))
    elif bn.label == g.QUANTIFIED:
        for idn, kind in _pair_idns(bn.children[0].children[1]):
            out.append((idn, idn.identifier_text(), kind))
    elif bn.label in (g.SET_QUERY_DECL, g.BOOLEAN_QUERY_DECL):
        # parameters bind inside the declared body
        for variable in bn.children[4].children:
            if variable.label == g.VARIABLE:
                idn = variable.children[1]
                kind = (SET_VARIABLE_KIND if variable.children[0].label == "set"
                        else LABEL_VARIABLE_KIND)
                out.append((idn, idn.identifier_text(), kind))
    return out


_BINDING_SITES = g.BINDER_CATEGORIES | {g.SET_QUERY_DECL, g.BOOLEAN_QUERY_DECL,
                                        g.LIBRARY_COMMAND}


def declaration_header(decl: ParseNode) -> str:
    """Brief form of one declaration: kind, name and parameters."""
    header = " ".join(reprint(child) for child in decl.children[:3])
    if decl.label in (g.SET_QUERY_DECL, g.BOOLEAN_QUERY_DECL):
        header += " (%s)" % reprint(decl.children[4]).replace(" , ", ",")
    return header


class Library:
    """A compiled session library: the declaration sources, their analyzed
    nodes in order with their brief headers, and the name -> (binder,
    declaration, kind) scope that queries are checked against.  `Library()`
    is empty; `extended` adds the declarations of an analyzed `library add`
    command, which is their binder.  Each declaration sees only earlier
    ones, and the last one of a name wins.  A library is never changed."""

    def __init__(self) -> None:
        self.sources: List[str] = []
        self.headers: List[str] = []
        self.declarations: List[ParseNode] = []
        self.scope: Dict[str, Tuple[ParseNode, ParseNode, DeclKind]] = {}

    def extended(self, binder: ParseNode, sources: Sequence[str]) -> "Library":
        """A new library: this one plus the declarations of `binder`."""
        found = binder_declarations(binder)
        out = Library()
        out.sources = self.sources + list(sources)
        out.headers = self.headers + [declaration_header(decl) for decl, _, _ in found]
        out.declarations = self.declarations + [decl for decl, _, _ in found]
        out.scope = dict(self.scope)
        out.scope.update((name, (binder, decl, kind)) for decl, name, kind in found)
        return out


def ids_search(tree: ParseNode, occurrence: ParseNode,
               library: Optional[Library] = None,
               declarations: Callable[[ParseNode], List[Tuple[ParseNode, str, DeclKind]]]
               = binder_declarations) -> DeclTriple:
    """Walk ancestors of an identifier occurrence looking for the nearest
    declaration of its name; rightmost declaration of a binder wins.  A name
    the query does not declare is looked up in the compiled library.
    `declarations` lists a binding site's declarations, as
    `binder_declarations` does.

    Inside the body of a let/library declaration d_i only declarations to its
    left are visible, so a name occurring in its own defining body resolves to
    an earlier declaration or fails.
    """
    name = occurrence.identifier_text()
    current: Optional[ParseNode] = occurrence
    skipped_own = False
    while current is not None:
        previous = current
        current = current.parent
        if current is None:
            break
        if current.label not in _BINDING_SITES:
            continue
        decls = declarations(current)
        if current.label in _DECLARATION_LISTS:
            if previous.label == g.DECLARATIONS:
                # ascent came from inside some declaration d_i: restrict the
                # scan to declarations left of d_i
                inner: Optional[ParseNode] = occurrence
                while inner is not None and inner.parent is not previous:
                    inner = inner.parent
                container = next((i for i, (idn, _, _) in enumerate(decls)
                                  if idn is inner), None)
                if container is not None:
                    if any(n == name for _, n, _ in decls[container:]):
                        skipped_own = True
                    decls = decls[:container]
        elif current.label in (g.SET_QUERY_DECL, g.BOOLEAN_QUERY_DECL):
            # parameters bind only inside the defining body (last child)
            if previous is not current.children[-1]:
                continue
        for idn, decl_name, kind in reversed(decls):
            if decl_name == name:
                return DeclTriple(current, idn, kind)
    if library is not None and name in library.scope:
        # the binder lies outside the query, as a spliced library `let` did
        binder, decl, kind = library.scope[name]
        return DeclTriple(binder, decl, kind)
    return DeclTriple(None, None, "recursive" if skipped_own else None)


# ---------------------------------------------------------------------------
# Syntactic category renaming
# ---------------------------------------------------------------------------

# identifiers (relabelled from their declarations) and variable pairs stay
_KEPT = g.IDENTIFIER_CATEGORIES | {g.VARIABLE_PAIR}


def scr_relabel(postorder: Sequence[ParseNode], errors: List[AnalysisItem]) -> bool:
    """Bottom-up relabelling by unique grammar forks of every node but the
    leaves, identifiers and variable pairs.  Over the tree's nodes in
    left-to-right postorder every child of a node is final when the node is
    reached, and the first error, the leftmost, ends the pass.

    A set name and a node marked correct (a query parameter) must already
    carry the fork's root; a missing fork or a mismatch is a typing error.
    Returns success.
    """
    # fork roots by child labels, for this call only: a single child's label
    # may be user text, which stays out of the process-wide fork cache
    roots: Dict[Tuple[str, ...], Optional[str]] = {}
    for node in postorder:
        if not node.children or node.label in _KEPT:
            continue
        labels = tuple([c.label for c in node.children])
        if labels not in roots:
            roots[labels] = g.unique_fork(labels)
        root = roots[labels]
        if root is None:
            errors.append(AnalysisItem(
                node.start,
                "the statement %r cannot be properly typed" % _snippet(node)))
            return False
        if root != node.label and (node.correct or node.label == g.SET_NAME):
            errors.append(AnalysisItem(
                node.start,
                "%r conflicts with the expected syntax (%s vs %s)"
                % (_snippet(node), node.label, root)))
            return False
        node.label = root
    return True


def _snippet(node: ParseNode, limit: int = 40) -> str:
    text = " ".join(leaf.label for leaf in node.leaves())
    return text if len(text) <= limit else text[:limit] + "..."


# ---------------------------------------------------------------------------
# The contextual analysis driver
# ---------------------------------------------------------------------------

def analyze(result: ParseResult, library: Optional[Library] = None) -> ParseNode:
    """Full contextual analysis against the compiled library's scope; returns
    the relabelled tree or raises AnalysisError carrying every detected
    problem."""
    tree = result.tree
    errors: List[AnalysisItem] = []

    # step 1: find a declaration for every identifier occurrence; each
    # binding site's declarations are listed once, not once per use
    declarations = functools.cache(binder_declarations)
    triples: Dict[int, DeclTriple] = {}
    for occurrence in result.identifier_nodes:
        triple = ids_search(tree, occurrence, library, declarations)
        triples[id(occurrence)] = triple
        if not triple.declared:
            name = occurrence.identifier_text()
            if triple.kind == "recursive":
                errors.append(AnalysisItem(
                    occurrence.start,
                    "recursive call of %s: recursive calls are not allowed" % name,
                    name))
            else:
                errors.append(AnalysisItem(
                    occurrence.start,
                    "occurrence of identifier name %s not declared" % name,
                    name))
    if errors:
        raise AnalysisError(errors)

    # step 2a: relabel identifier occurrences from their declarations
    for occurrence in result.identifier_nodes:
        kind = triples[id(occurrence)].kind
        if isinstance(kind, QueryType):
            occurrence.label = (g.SET_QUERY_NAME if kind.result == "set"
                                else g.BOOLEAN_QUERY_NAME)
        else:
            occurrence.label = _KIND_CATEGORY[kind]

    # step 2b: query call arity and parameter classes
    for occurrence in result.identifier_nodes:
        kind = triples[id(occurrence)].kind
        if not isinstance(kind, QueryType):
            continue
        call = occurrence.parent
        if call is None or call.label not in (g.SET_QUERY_CALL, g.BOOLEAN_QUERY_CALL):
            continue
        parameters = call.children[3]
        params = [c for c in parameters.children if c.label != ","]
        if len(params) != len(kind.parameters):
            errors.append(AnalysisItem(
                call.start,
                "query %s expects %d parameter(s), got %d"
                % (occurrence.identifier_text(), len(kind.parameters), len(params))))
            continue
        for param, expected in zip(params, kind.parameters):
            ok = (param.label in g.TERM_CATEGORIES if expected == "set"
                  else param.label in g.LABEL_CATEGORIES)
            if not ok:
                errors.append(AnalysisItem(
                    param.start,
                    "parameter %r is not a %s" % (_snippet(param), expected)))
            param.correct = True
    if errors:
        raise AnalysisError(errors)

    # step 3: rename the remaining categories bottom-up
    if not scr_relabel(result.postorder, errors):
        raise AnalysisError(errors)

    # step 4: boundedness of binding constructs
    _check_bounded(result, triples, errors)
    if errors:
        raise AnalysisError(errors)
    return tree


def _check_bounded(result: ParseResult, triples: Dict[int, DeclTriple],
                   errors: List[AnalysisItem]) -> None:
    def within(node: Optional[ParseNode], region: ParseNode) -> bool:
        while node is not None:
            if node is region:
                return True
            node = node.parent
        return False

    for node, btflvn, uses in result.binders:
        # (a) binder-bounded variables must not occur free in the bounding term
        if node.label in (g.COLLECT, g.SEPARATE, g.RECURSION, g.QUANTIFIED):
            bounded = {name for _, name, _ in binder_declarations(node)}
            for use in uses:
                if use.identifier_text() in bounded:
                    bn = triples[id(use)].binder
                    if not within(bn, btflvn):
                        errors.append(AnalysisItem(
                            use.start,
                            "variable %s occurs in the term bounding it"
                            % use.identifier_text(), use.identifier_text()))
        # (b) set constant definitions must have no free variables, and (c)
        # query bodies may use only their parameters as free variables
        elif node.label in g.DECLARATION_CATEGORIES:
            for use in uses:
                if use.label in (g.SET_VARIABLE, g.LABEL_VARIABLE):
                    bn = triples[id(use)].binder
                    if bn is node or within(bn, btflvn):
                        continue  # bound by a parameter or inside the body
                    name = use.identifier_text()
                    errors.append(AnalysisItem(use.start, (
                        "free variable %s in a set constant definition" % name
                        if node.label == g.SET_CONSTANT_DECL else
                        "variable %s is free in the body of %s"
                        % (name, node.children[2].identifier_text())), name))


# ---------------------------------------------------------------------------
# Library expansion
# ---------------------------------------------------------------------------

import re as _re

_QUERY_RE = _re.compile(r"^\s*(set|boolean)(\s+)query\b(.*?);\s*$", _re.S)


def expand_library(query_source: str, library: Sequence[str]) -> str:
    """Wrap a query in a `let` of the library declarations; later
    declarations shadow earlier ones through the rightmost-wins search.
    Nothing compiles through this splice: libraries are compiled as
    `library add` commands (`Library.extended`)."""
    if not library:
        return query_source
    match = _QUERY_RE.match(query_source)
    if match is None:
        return query_source
    kind, _, body = match.groups()
    decls = ",\n".join(d.strip().rstrip(",") for d in library)
    return "%s query let %s in %s endlet;" % (kind, decls, body.strip())

