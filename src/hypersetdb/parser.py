"""Recursive-descent parser for top-level query-language commands.

The parser builds fork-based parse trees.  Identifier occurrences get
provisional categories (variable over constant, set over label where the
context leaves a choice); the contextual analysis later corrects them from
the declarations in scope and relabels the affected ancestors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import grammar as g
from .grammar import Token, TokenError, tokenize


class ParseError(Exception):
    def __init__(self, message: str, position: int) -> None:
        super().__init__("Error at character %d, %s" % (position + 1, message))
        self.position = position
        self.reason = message


class ParseNode:
    """A parse-tree node: category label, children, source span and the
    seen/correct marks used by contextual analysis."""

    __slots__ = ("label", "children", "start", "end", "parent", "seen", "correct")

    def __init__(self, label: str, children: Optional[List["ParseNode"]] = None,
                 start: int = 0, end: int = 0) -> None:
        self.label = label
        self.children = children or []
        self.start = start
        self.end = end
        self.parent: Optional[ParseNode] = None
        self.seen = False
        self.correct = False

    def is_leaf(self) -> bool:
        return not self.children

    def child_labels(self) -> Tuple[str, ...]:
        return tuple(c.label for c in self.children)

    def walk(self):
        """The subtree in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> List["ParseNode"]:
        return [n for n in self.walk() if n.is_leaf()]

    def shape(self) -> Tuple[object, ...]:
        """The subtree's labels and child counts in one fixed order: two
        subtrees are equal exactly when their shapes are."""
        out: List[object] = []
        stack = [self]
        while stack:
            node = stack.pop()
            out += (node.label, len(node.children))
            stack.extend(node.children)
        return tuple(out)

    def identifier_text(self) -> str:
        """The name under an identifier node."""
        return self.children[0].label

    def __repr__(self) -> str:  # pragma: no cover
        if self.is_leaf():
            return "Leaf(%r)" % self.label
        return "%s%r" % (self.label, self.child_labels())


def reprint(node: ParseNode) -> str:
    """Source text regenerated from the leaves; reparsing it yields an
    isomorphic tree."""
    return " ".join(leaf.label for leaf in node.leaves())


@dataclass
class ParseResult:
    """A parsed command: its tree, the tree's nodes in preorder and in
    left-to-right postorder, the identifier uses in preorder, and for each
    binder (keyed by id) its bounding node with the uses inside that node."""

    tree: ParseNode
    preorder: List[ParseNode]
    postorder: List[ParseNode]
    identifier_nodes: List[ParseNode]
    btflvn_sublists: Dict[int, Tuple[ParseNode, List[ParseNode]]]


class _Parser:
    def __init__(self, source: str) -> None:
        try:
            self.tokens = tokenize(source)
        except TokenError as exc:
            raise ParseError(str(exc), exc.position)
        self.pos = 0
        self.furthest = 0
        self.furthest_expected = "query"
        # start of a parenthesised term that failed -> what its attempt
        # found as the furthest error: (position, expected)
        self.failed_parens: Dict[int, Tuple[int, str]] = {}

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def fail(self, expected: str) -> "ParseError":
        token = self.peek()
        self.note_furthest(token.position, expected)
        shown = token.text if token.kind != "EOF" else "end of input"
        return ParseError("expected %s but found %r" % (expected, shown),
                          token.position)

    def note_furthest(self, position: int, expected: str) -> None:
        if position >= self.furthest:
            self.furthest = position
            self.furthest_expected = expected

    def take(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def leaf(self, token: Token) -> ParseNode:
        return ParseNode(token.text, start=token.position,
                         end=token.position + len(token.text))

    def expect(self, text: str, expected: Optional[str] = None) -> ParseNode:
        token = self.peek()
        if token.text != text or token.kind == "EOF":
            raise self.fail(expected or repr(text))
        return self.leaf(self.take())

    def at_word(self, *texts: str) -> bool:
        token = self.peek()
        return token.kind == "WORD" and token.text in texts

    def at_punct(self, *texts: str) -> bool:
        token = self.peek()
        return token.kind == "PUNCT" and token.text in texts

    def node(self, label: str, children: List[ParseNode]) -> ParseNode:
        start = children[0].start if children else self.peek().position
        end = children[-1].end if children else start
        return ParseNode(label, children, start, end)

    def identifier_node(self, category: str) -> ParseNode:
        token = self.peek()
        if token.kind != "WORD" or token.text in g.KEYWORDS:
            raise self.fail("identifier")
        leaf = self.leaf(self.take())
        return self.node(category, [leaf])

    # -- top level ----------------------------------------------------------

    def parse_top_level(self) -> ParseNode:
        if self.at_word("exit"):
            children = [self.leaf(self.take()), self.expect(";")]
            return self.node(g.TOP_LEVEL, children)
        if self.at_word("library"):
            kw = self.leaf(self.take())
            command = self.parse_library_command()
            semi = self.expect(";")
            return self.node(g.TOP_LEVEL, [kw, command, semi])
        query = self.parse_query()
        semi = self.expect(";")
        return self.node(g.TOP_LEVEL, [query, semi])

    def parse_query(self) -> ParseNode:
        if self.at_word("boolean"):
            kw1 = self.leaf(self.take())
            kw2 = self.expect("query")
            body = self.parse_formula()
            return self.node(g.QUERY, [kw1, kw2, body])
        if self.at_word("set"):
            kw1 = self.leaf(self.take())
            kw2 = self.expect("query")
            body = self.parse_term()
            return self.node(g.QUERY, [kw1, kw2, body])
        raise self.fail("a query ('set query' or 'boolean query')")

    def parse_library_command(self) -> ParseNode:
        if self.at_word("add"):
            kw = self.leaf(self.take())
            decls = self.parse_declarations()
            return self.node(g.LIBRARY_COMMAND, [kw, decls])
        if self.at_word("list"):
            children = [self.leaf(self.take())]
            if self.at_word("verbose"):
                children.append(self.leaf(self.take()))
            return self.node(g.LIBRARY_COMMAND, children)
        raise self.fail("'add' or 'list'")

    # -- declarations -------------------------------------------------------

    def parse_declarations(self) -> ParseNode:
        children = [self.parse_declaration()]
        while self.at_punct(","):
            children.append(self.leaf(self.take()))
            children.append(self.parse_declaration())
        return self.node(g.DECLARATIONS, children)

    def parse_declaration(self) -> ParseNode:
        if self.at_word("set") and self.peek(1).text == "constant":
            kw1, kw2 = self.leaf(self.take()), self.leaf(self.take())
            name = self.identifier_node(g.SET_CONSTANT)
            eq = self.parse_be_or_eq()
            body = self.parse_term()
            return self.node(g.SET_CONSTANT_DECL, [kw1, kw2, name, eq, body])
        if self.at_word("label") and self.peek(1).text == "constant":
            kw1, kw2 = self.leaf(self.take()), self.leaf(self.take())
            name = self.identifier_node(g.LABEL_CONSTANT)
            eq = self.parse_be_or_eq()
            if self.peek().kind != "LABELVALUE":
                raise self.fail("a label value")
            token = self.take()
            if "*" in token.text:
                raise ParseError("label constants must be plain label values",
                                 token.position)
            value = self.node(g.LABEL_VALUE, [self.leaf(token)])
            return self.node(g.LABEL_CONSTANT_DECL, [kw1, kw2, name, eq, value])
        if self.at_word("set") and self.peek(1).text == "query":
            kw1, kw2 = self.leaf(self.take()), self.leaf(self.take())
            name = self.identifier_node(g.SET_QUERY_NAME)
            lp = self.expect("(")
            variables = self.parse_variables()
            rp = self.expect(")")
            eq = self.parse_be_or_eq()
            body = self.parse_term()
            return self.node(g.SET_QUERY_DECL,
                             [kw1, kw2, name, lp, variables, rp, eq, body])
        if self.at_word("boolean") and self.peek(1).text == "query":
            kw1, kw2 = self.leaf(self.take()), self.leaf(self.take())
            name = self.identifier_node(g.BOOLEAN_QUERY_NAME)
            lp = self.expect("(")
            variables = self.parse_variables()
            rp = self.expect(")")
            eq = self.parse_be_or_eq()
            body = self.parse_formula()
            return self.node(g.BOOLEAN_QUERY_DECL,
                             [kw1, kw2, name, lp, variables, rp, eq, body])
        raise self.fail("a declaration")

    def parse_be_or_eq(self) -> ParseNode:
        if self.at_word("be") or self.at_punct("="):
            return self.leaf(self.take())
        raise self.fail("'be' or '='")

    def parse_variables(self) -> ParseNode:
        children = [self.parse_variable()]
        while self.at_punct(","):
            children.append(self.leaf(self.take()))
            children.append(self.parse_variable())
        return self.node(g.VARIABLES, children)

    def parse_variable(self) -> ParseNode:
        if self.at_word("set"):
            kw = self.leaf(self.take())
            return self.node(g.VARIABLE, [kw, self.identifier_node(g.SET_VARIABLE)])
        if self.at_word("label"):
            kw = self.leaf(self.take())
            return self.node(g.VARIABLE, [kw, self.identifier_node(g.LABEL_VARIABLE)])
        raise self.fail("'set <variable>' or 'label <variable>'")

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> ParseNode:
        token = self.peek()
        if token.kind == "PUNCT" and token.text == "{":
            return self.parse_enumerate()
        if token.kind == "PUNCT" and token.text == "(":
            return self.parse_paren_term()
        if token.kind == "SETNAME":
            return self.node(g.SET_NAME, [self.leaf(self.take())])
        if token.kind == "ATOM":
            return self.node(g.ATOMIC_VALUE, [self.leaf(self.take())])
        if token.kind == "WORD":
            word = token.text
            if word in ("U", "union"):
                kw = self.leaf(self.take())
                return self.node(g.UNION, [kw, self.parse_term()])
            if word in ("tc", "TC", "transitiveclosure"):
                kw = self.leaf(self.take())
                return self.node(g.TRANSITIVE_CLOSURE, [kw, self.parse_term()])
            if word == "collect":
                return self.parse_collect()
            if word == "separate":
                return self.parse_separate()
            if word == "recursion":
                return self.parse_recursion()
            if word == "decorate":
                kw = self.leaf(self.take())
                lp = self.expect("(")
                first = self.parse_term()
                comma = self.expect(",")
                second = self.parse_term()
                rp = self.expect(")")
                return self.node(g.DECORATION, [kw, lp, first, comma, second, rp])
            if word == "if":
                kw = self.leaf(self.take())
                cond = self.parse_formula()
                then_kw = self.expect("then")
                then_term = self.parse_term()
                else_kw = self.expect("else")
                else_term = self.parse_term()
                fi = self.expect("fi")
                return self.node(g.IF_ELSE_TERM,
                                 [kw, cond, then_kw, then_term, else_kw, else_term, fi])
            if word == "call":
                return self.parse_call(g.SET_QUERY_CALL, g.SET_QUERY_NAME)
            if word == "let":
                kw = self.leaf(self.take())
                decls = self.parse_declarations()
                inkw = self.expect("in")
                body = self.parse_term()
                end = self.expect("endlet")
                return self.node(g.TERM_WITH_DECLS, [kw, decls, inkw, body, end])
            if word not in g.KEYWORDS:
                return self.identifier_node(g.SET_VARIABLE)
        raise self.fail("a term")

    def parse_enumerate(self) -> ParseNode:
        lb = self.expect("{")
        if self.at_punct("}"):
            return self.node(g.ENUMERATE, [lb, self.leaf(self.take())])
        terms = [self.parse_labelled_term()]
        while self.at_punct(","):
            terms.append(self.leaf(self.take()))
            terms.append(self.parse_labelled_term())
        inner = self.node(g.LABELLED_TERMS, terms)
        rb = self.expect("}")
        return self.node(g.ENUMERATE, [lb, inner, rb])

    def parse_paren_term(self) -> ParseNode:
        """A parenthesised term.  A formula tries a term first at each of
        its opening parentheses, so a nest that failed as a term at a start
        fails there again without being re-parsed, and its attempt's effect
        on the furthest error is replayed: a formula nested d deep in
        parentheses costs about d term steps, not d squared."""
        start = self.pos
        if start in self.failed_parens:
            self.note_furthest(*self.failed_parens[start])
            raise ParseError("expected a term", self.peek().position)
        outer = self.furthest, self.furthest_expected
        self.furthest = -1
        try:
            lp = self.expect("(")
            first = self.parse_term()
            if self.at_word("U", "union"):
                children = [first]
                while self.at_word("U", "union"):
                    children.append(self.leaf(self.take()))
                    children.append(self.parse_term())
                inner: ParseNode = self.node(g.MULTIPLE_UNION, children)
            else:
                inner = first
            rp = self.expect(")")
            return self.node(g.PAREN_TERM, [lp, inner, rp])
        except ParseError:
            self.failed_parens[start] = (self.furthest, self.furthest_expected)
            raise
        finally:
            found = self.furthest, self.furthest_expected
            self.furthest, self.furthest_expected = outer
            self.note_furthest(*found)

    def parse_labelled_term(self) -> ParseNode:
        label = self.parse_label_operand()
        colon = self.expect(":")
        term = self.parse_term()
        return self.node(g.LABELLED_TERM, [label, colon, term])

    def parse_label_operand(self) -> ParseNode:
        token = self.peek()
        if token.kind == "LABELVALUE":
            if "*" in token.text:
                return self.node(g.WILDCARD_LABEL, [self.leaf(self.take())])
            return self.node(g.LABEL_VALUE, [self.leaf(self.take())])
        if token.kind == "WORD" and token.text not in g.KEYWORDS:
            return self.identifier_node(g.LABEL_VARIABLE)
        raise self.fail("a label")

    def parse_wildcard_or_label(self) -> ParseNode:
        if self.at_punct("*"):
            star = self.leaf(self.take())
            name = self.identifier_node(g.LABEL_VARIABLE)
            children = [star, name]
            if self.at_punct("*"):
                children.append(self.leaf(self.take()))
            return self.node(g.WILDCARD_LABEL, children)
        operand = self.parse_label_operand()
        if operand.label != g.WILDCARD_LABEL and self.at_punct("*"):
            if operand.label in (g.LABEL_VARIABLE, g.LABEL_CONSTANT):
                return self.node(g.WILDCARD_LABEL, [operand, self.leaf(self.take())])
        return operand

    def parse_variable_pair(self) -> ParseNode:
        token = self.peek()
        if token.kind == "LABELVALUE":
            if "*" in token.text:
                raise ParseError("wildcards are not allowed in variable pairs",
                                 token.position)
            label = self.node(g.LABEL_VALUE, [self.leaf(self.take())])
        else:
            label = self.identifier_node(g.LABEL_VARIABLE)
        colon = self.expect(":")
        var = self.identifier_node(g.SET_VARIABLE)
        return self.node(g.VARIABLE_PAIR, [label, colon, var])

    def parse_collect(self) -> ParseNode:
        kw = self.expect("collect")
        lb = self.expect("{")
        template = self.parse_labelled_term()
        where = self.parse_where_kw()
        pair = self.parse_variable_pair()
        inkw = self.parse_in_kw()
        term = self.parse_term()
        children = [kw, lb, template, where, pair, inkw, term]
        if self.at_word("and"):
            children.append(self.leaf(self.take()))
            children.append(self.parse_formula())
        children.append(self.expect("}"))
        return self.node(g.COLLECT, children)

    def parse_separate(self) -> ParseNode:
        kw = self.expect("separate")
        lb = self.expect("{")
        pair = self.parse_variable_pair()
        inkw = self.parse_in_kw()
        term = self.parse_term()
        where = self.parse_where_kw()
        body = self.parse_formula()
        rb = self.expect("}")
        return self.node(g.SEPARATE, [kw, lb, pair, inkw, term, where, body, rb])

    def parse_recursion(self) -> ParseNode:
        kw = self.expect("recursion")
        var = self.identifier_node(g.SET_VARIABLE)
        lb = self.expect("{")
        pair = self.parse_variable_pair()
        inkw = self.parse_in_kw()
        term = self.parse_term()
        where = self.parse_where_kw()
        body = self.parse_formula()
        rb = self.expect("}")
        return self.node(g.RECURSION, [kw, var, lb, pair, inkw, term, where, body, rb])

    def parse_in_kw(self) -> ParseNode:
        if self.at_word("in") or self.at_punct("<-"):
            return self.leaf(self.take())
        raise self.fail("'in' or '<-'")

    def parse_where_kw(self) -> ParseNode:
        if self.at_word("where") or self.at_punct("|"):
            return self.leaf(self.take())
        raise self.fail("'where' or '|'")

    def parse_call(self, node_label: str, name_label: str) -> ParseNode:
        kw = self.expect("call")
        name = self.identifier_node(name_label)
        lp = self.expect("(")
        params = [self.parse_parameter()]
        while self.at_punct(","):
            params.append(self.leaf(self.take()))
            params.append(self.parse_parameter())
        parameters = self.node(g.PARAMETERS, params)
        rp = self.expect(")")
        return self.node(node_label, [kw, name, lp, parameters, rp])

    def parse_parameter(self) -> ParseNode:
        if self.peek().kind == "LABELVALUE":
            return self.parse_label_operand()
        return self.parse_term()

    # -- formulas ------------------------------------------------------------

    def parse_formula(self) -> ParseNode:
        token = self.peek()
        if token.kind == "WORD":
            word = token.text
            if word in ("true", "false"):
                return self.node(g.BOOLEAN_LITERAL, [self.leaf(self.take())])
            if word == "not":
                kw = self.leaf(self.take())
                return self.node(g.NEGATED, [kw, self.parse_formula()])
            if word in ("forall", "exists"):
                return self.parse_quantified()
            if word == "if":
                formula = self.try_parse(self.parse_if_else_formula)
                if formula is not None:
                    return formula
            if word == "let":
                formula = self.try_parse(self.parse_formula_with_decls)
                if formula is not None:
                    return formula

        atomic = self.try_parse(self.parse_atomic_comparison)
        if atomic is not None:
            return atomic
        if self.at_punct("("):
            group = self.try_parse(self.parse_formula_group)
            if group is not None:
                return group
        if self.at_word("call"):
            return self.parse_call(g.BOOLEAN_QUERY_CALL, g.BOOLEAN_QUERY_NAME)
        raise self.fail("a formula")

    def try_parse(self, production) -> Optional[ParseNode]:
        saved = self.pos
        try:
            return production()
        except ParseError:
            self.pos = saved
            return None

    def parse_if_else_formula(self) -> ParseNode:
        kw = self.expect("if")
        cond = self.parse_formula()
        then_kw = self.expect("then")
        then_f = self.parse_formula()
        else_kw = self.expect("else")
        else_f = self.parse_formula()
        fi = self.expect("fi")
        return self.node(g.IF_ELSE_FORMULA,
                         [kw, cond, then_kw, then_f, else_kw, else_f, fi])

    def parse_formula_with_decls(self) -> ParseNode:
        kw = self.expect("let")
        decls = self.parse_declarations()
        inkw = self.expect("in")
        body = self.parse_formula()
        end = self.expect("endlet")
        return self.node(g.FORMULA_WITH_DECLS, [kw, decls, inkw, body, end])

    def parse_atomic_comparison(self) -> ParseNode:
        # membership: <labelled term> in/<- term
        membership = self.try_parse(self.parse_membership)
        if membership is not None:
            return membership
        # set equality: term = term
        saved = self.pos
        try:
            lhs = self.parse_term()
            eq = self.expect("=")
            rhs = self.parse_term()
            return self.node(g.SET_EQUALITY, [lhs, eq, rhs])
        except ParseError:
            self.pos = saved
        # label equality / relationship
        lhs = self.parse_wildcard_or_label()
        token = self.peek()
        if token.text == "=" and token.kind == "PUNCT":
            eq = self.leaf(self.take())
            rhs = self.parse_wildcard_or_label()
            if lhs.label == g.WILDCARD_LABEL and rhs.label == g.WILDCARD_LABEL:
                raise ParseError("only one side of a label equality may carry "
                                 "wildcards", token.position)
            return self.node(g.LABEL_EQUALITY, [lhs, eq, rhs])
        if token.text in ("<", ">", "<=", ">=") and token.kind == "PUNCT":
            if lhs.label == g.WILDCARD_LABEL:
                raise ParseError("wildcards are not allowed in label comparisons",
                                 token.position)
            rel = self.leaf(self.take())
            rhs = self.parse_label_operand()
            return self.node(g.LABEL_RELATIONSHIP, [lhs, rel, rhs])
        raise self.fail("'=', '<', '>', '<=' or '>='")

    def parse_membership(self) -> ParseNode:
        lt = self.parse_labelled_term()
        inkw = self.parse_in_kw()
        term = self.parse_term()
        return self.node(g.MEMBERSHIP, [lt, inkw, term])

    def parse_formula_group(self) -> ParseNode:
        lp = self.expect("(")
        first = self.parse_formula()
        token = self.peek()
        if self.at_word("and"):
            inner = self.parse_connective_chain(first, ("and",), g.CONJUNCTION)
        elif self.at_word("or"):
            inner = self.parse_connective_chain(first, ("or",), g.DISJUNCTION)
        elif (token.text in g.QUASI_CONNECTIVES
              and (token.kind == "PUNCT" or token.kind == "WORD")):
            inner = self.parse_connective_chain(first, g.QUASI_CONNECTIVES,
                                                g.QUASI_IMPLICATION)
        else:
            inner = first
        rp = self.expect(")")
        return self.node(g.PAREN_FORMULA, [lp, inner, rp])

    def parse_connective_chain(self, first: ParseNode, connectives, label: str) -> ParseNode:
        children = [first]
        while self.peek().text in connectives and self.peek().kind in ("WORD", "PUNCT"):
            children.append(self.leaf(self.take()))
            children.append(self.parse_formula())
        return self.node(label, children)

    def parse_quantified(self) -> ParseNode:
        kw = self.leaf(self.take())
        root = g.FORALL if kw.label == "forall" else g.EXISTS
        pair = self.parse_variable_pair()
        inkw = self.parse_in_kw()
        term = self.parse_term()
        children = [kw, pair, inkw, term]
        if self.at_punct("."):
            children.append(self.leaf(self.take()))
        quantifier = self.node(root, children)
        body = self.parse_formula()
        return self.node(g.QUANTIFIED, [quantifier, body])


# ---------------------------------------------------------------------------
# Identifier and bounding-node bookkeeping
# ---------------------------------------------------------------------------

def _declares(parent: ParseNode, identifier: ParseNode) -> bool:
    """Whether an identifier node declares (rather than uses) a name: a
    declared constant/query name, a query parameter, a variable-pair
    component or a recursion variable."""
    if parent.label in g.DECLARATION_CATEGORIES:
        return parent.children[2] is identifier
    if parent.label in (g.VARIABLE, g.RECURSION):
        return parent.children[1] is identifier
    return parent.label == g.VARIABLE_PAIR


# the child that bounds a binder or declaration node, by the node's label
_BOUNDING_CHILD = dict.fromkeys(g.DECLARATION_CATEGORIES, -1)
_BOUNDING_CHILD.update({g.COLLECT: 6, g.SEPARATE: 4, g.RECURSION: 5,
                        g.FORALL: 3, g.EXISTS: 3})


def bounding_node(bn: ParseNode) -> Optional[ParseNode]:
    """The bounding term / formula / label-value node (BTFLVN) of a binder or
    declaration node: the expression that must not capture the names the
    binder declares.  Positions follow the fork shapes built by the parser;
    a quantified formula is bounded as its quantifier is."""
    if bn.label == g.QUANTIFIED:
        bn = bn.children[0]
    index = _BOUNDING_CHILD.get(bn.label)
    return None if index is None else bn.children[index]


def _one_pass(tree: ParseNode) -> ParseResult:
    """Link parents, list the nodes in preorder and left-to-right postorder,
    and collect the identifier uses and each binder's share of them, in one
    walk.  A node comes off the stack on entry and again on exit, when the
    uses found since its entry are exactly those inside it."""
    preorder: List[ParseNode] = []
    postorder: List[ParseNode] = []
    uses: List[ParseNode] = []
    sublists: Dict[int, Tuple[ParseNode, List[ParseNode]]] = {}
    binders: Dict[int, List[ParseNode]] = {}  # id(bounding node) -> binders
    stack: List[Tuple[ParseNode, int]] = [(tree, -1)]
    while stack:
        node, entered = stack.pop()
        if entered >= 0:
            postorder.append(node)
            for binder in binders.pop(id(node), ()):
                sublists[id(binder)] = (node, uses[entered:])
            continue
        preorder.append(node)
        stack.append((node, len(uses)))
        if node.label in g.IDENTIFIER_CATEGORIES and not _declares(node.parent, node):
            uses.append(node)
        btflvn = bounding_node(node)
        if btflvn is not None:
            sublists[id(node)] = (btflvn, [])  # keeps the binders in preorder
            binders.setdefault(id(btflvn), []).append(node)
        for child in reversed(node.children):
            child.parent = node
            stack.append((child, -1))
    return ParseResult(tree, preorder, postorder, uses, sublists)


def parse(source: str) -> ParseResult:
    """Parse one ';'-terminated top level command."""
    parser = _Parser(source)
    try:
        tree = parser.parse_top_level()
    except ParseError:
        raise ParseError("expected %s" % parser.furthest_expected, parser.furthest)
    except RecursionError:
        raise ParseError("expected a less deeply nested expression",
                         parser.peek().position)
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError("unexpected input after command", trailing.position)
    return _one_pass(tree)
