"""Recursive-descent parser for top-level query-language commands.

The parser builds fork-based parse trees.  Identifier occurrences get
provisional categories (variable over constant, set over label where the
context leaves a choice); the contextual analysis later corrects them from
the declarations in scope and relabels the affected ancestors.

The descent records what the analysis reads while it builds the tree, with
no later walk: each node's parent, the nodes in the order it finishes them
(left-to-right postorder), the identifier nodes that use a name (a call site
knows whether its identifier declares a name or uses one) and the binder
nodes.  Both places that backtrack, `try_parse` and the set-equality attempt,
cut every record back to where their attempt began.
"""

from __future__ import annotations

from bisect import bisect_left
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
    """A parse-tree node: category label, children, source span, parent and
    the mark of a node whose label the contextual analysis must confirm."""

    __slots__ = ("label", "children", "start", "end", "parent", "correct")

    def __init__(self, label: str, children: List["ParseNode"], start: int,
                 end: int) -> None:
        self.label = label
        self.children = children
        self.start = start
        self.end = end
        self.parent: Optional[ParseNode] = None
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
    """A parsed command and what the descent recorded while building it: the
    tree's nodes in left-to-right postorder, the identifier nodes that use a
    name in source order, and each binder or declaration node in source
    order (of two that start together, the outer first) with its
    `bounding_node` and the uses inside that node."""

    tree: ParseNode
    postorder: List[ParseNode]
    identifier_nodes: List[ParseNode]
    binders: List[Tuple[ParseNode, ParseNode, List[ParseNode]]]


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
        self.postorder: List[ParseNode] = []
        self.uses: List[ParseNode] = []
        self.binders: List[ParseNode] = []  # in the order they finish

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def fail(self, expected: str) -> "ParseError":
        kind, text, position = self.tokens[self.pos]
        self.note_furthest(position, expected)
        shown = text if kind != "EOF" else "end of input"
        return ParseError("expected %s but found %r" % (expected, shown), position)

    def note_furthest(self, position: int, expected: str) -> None:
        if position >= self.furthest:
            self.furthest = position
            self.furthest_expected = expected

    def leaf(self) -> ParseNode:
        """A leaf of the current token, which it consumes."""
        _, text, position = self.tokens[self.pos]
        self.pos += 1
        leaf = ParseNode(text, [], position, position + len(text))
        self.postorder.append(leaf)
        return leaf

    def expect(self, text: str, expected: Optional[str] = None) -> ParseNode:
        # EOF's text is empty, so it never matches
        if self.tokens[self.pos][1] != text:
            raise self.fail(expected or repr(text))
        return self.leaf()

    def at_word(self, *texts: str) -> bool:
        kind, text, _ = self.tokens[self.pos]
        return kind == "WORD" and text in texts

    def at_punct(self, *texts: str) -> bool:
        kind, text, _ = self.tokens[self.pos]
        return kind == "PUNCT" and text in texts

    def node(self, label: str, children: List[ParseNode]) -> ParseNode:
        node = ParseNode(label, children, children[0].start, children[-1].end)
        for child in children:
            child.parent = node
        self.postorder.append(node)
        if label in _BOUNDED:
            self.binders.append(node)
        return node

    def declared(self, category: str) -> ParseNode:
        """An identifier node that declares a name."""
        kind, text, _ = self.tokens[self.pos]
        if kind != "WORD" or text in g.KEYWORDS:
            raise self.fail("identifier")
        return self.node(category, [self.leaf()])

    def identifier_node(self, category: str) -> ParseNode:
        """An identifier node that uses a name."""
        node = self.declared(category)
        self.uses.append(node)
        return node

    # -- backtracking --------------------------------------------------------

    def save(self) -> Tuple[int, int, int, int]:
        return self.pos, len(self.postorder), len(self.uses), len(self.binders)

    def restore(self, saved: Tuple[int, int, int, int]) -> None:
        """Back to a saved position, dropping what was recorded since."""
        self.pos, nodes, uses, binders = saved
        del self.postorder[nodes:]
        del self.uses[uses:]
        del self.binders[binders:]

    def try_parse(self, production) -> Optional[ParseNode]:
        saved = self.save()
        try:
            return production()
        except ParseError:
            self.restore(saved)
            return None

    # -- top level ----------------------------------------------------------

    def parse_top_level(self) -> ParseNode:
        if self.at_word("exit"):
            children = [self.leaf(), self.expect(";")]
            return self.node(g.TOP_LEVEL, children)
        if self.at_word("library"):
            kw = self.leaf()
            command = self.parse_library_command()
            semi = self.expect(";")
            return self.node(g.TOP_LEVEL, [kw, command, semi])
        query = self.parse_query()
        semi = self.expect(";")
        return self.node(g.TOP_LEVEL, [query, semi])

    def parse_query(self) -> ParseNode:
        if self.at_word("boolean"):
            kw1 = self.leaf()
            kw2 = self.expect("query")
            body = self.parse_formula()
            return self.node(g.QUERY, [kw1, kw2, body])
        if self.at_word("set"):
            kw1 = self.leaf()
            kw2 = self.expect("query")
            body = self.parse_term()
            return self.node(g.QUERY, [kw1, kw2, body])
        raise self.fail("a query ('set query' or 'boolean query')")

    def parse_library_command(self) -> ParseNode:
        if self.at_word("add"):
            kw = self.leaf()
            decls = self.parse_declarations()
            return self.node(g.LIBRARY_COMMAND, [kw, decls])
        if self.at_word("list"):
            children = [self.leaf()]
            if self.at_word("verbose"):
                children.append(self.leaf())
            return self.node(g.LIBRARY_COMMAND, children)
        raise self.fail("'add' or 'list'")

    # -- declarations -------------------------------------------------------

    def parse_declarations(self) -> ParseNode:
        children = [self.parse_declaration()]
        while self.at_punct(","):
            children.append(self.leaf())
            children.append(self.parse_declaration())
        return self.node(g.DECLARATIONS, children)

    def parse_declaration(self) -> ParseNode:
        if self.at_word("set") and self.peek(1)[1] == "constant":
            kw1, kw2 = self.leaf(), self.leaf()
            name = self.declared(g.SET_CONSTANT)
            eq = self.parse_be_or_eq()
            body = self.parse_term()
            return self.node(g.SET_CONSTANT_DECL, [kw1, kw2, name, eq, body])
        if self.at_word("label") and self.peek(1)[1] == "constant":
            kw1, kw2 = self.leaf(), self.leaf()
            name = self.declared(g.LABEL_CONSTANT)
            eq = self.parse_be_or_eq()
            if self.peek()[0] != "LABELVALUE":
                raise self.fail("a label value")
            text = self.leaf()
            if "*" in text.label:
                raise ParseError("label constants must be plain label values",
                                 text.start)
            value = self.node(g.LABEL_VALUE, [text])
            return self.node(g.LABEL_CONSTANT_DECL, [kw1, kw2, name, eq, value])
        if self.at_word("set", "boolean") and self.peek(1)[1] == "query":
            kw1, kw2 = self.leaf(), self.leaf()
            boolean = kw1.label == "boolean"
            name = self.declared(g.BOOLEAN_QUERY_NAME if boolean else g.SET_QUERY_NAME)
            lp = self.expect("(")
            variables = self.parse_variables()
            rp = self.expect(")")
            eq = self.parse_be_or_eq()
            body = self.parse_formula() if boolean else self.parse_term()
            return self.node(g.BOOLEAN_QUERY_DECL if boolean else g.SET_QUERY_DECL,
                             [kw1, kw2, name, lp, variables, rp, eq, body])
        raise self.fail("a declaration")

    def parse_be_or_eq(self) -> ParseNode:
        if self.at_word("be") or self.at_punct("="):
            return self.leaf()
        raise self.fail("'be' or '='")

    def parse_variables(self) -> ParseNode:
        children = [self.parse_variable()]
        while self.at_punct(","):
            children.append(self.leaf())
            children.append(self.parse_variable())
        return self.node(g.VARIABLES, children)

    def parse_variable(self) -> ParseNode:
        if self.at_word("set"):
            kw = self.leaf()
            return self.node(g.VARIABLE, [kw, self.declared(g.SET_VARIABLE)])
        if self.at_word("label"):
            kw = self.leaf()
            return self.node(g.VARIABLE, [kw, self.declared(g.LABEL_VARIABLE)])
        raise self.fail("'set <variable>' or 'label <variable>'")

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> ParseNode:
        kind, word, _ = self.tokens[self.pos]
        if kind == "PUNCT" and word == "{":
            return self.parse_enumerate()
        if kind == "PUNCT" and word == "(":
            return self.parse_paren_term()
        if kind == "SETNAME":
            return self.node(g.SET_NAME, [self.leaf()])
        if kind == "ATOM":
            return self.node(g.ATOMIC_VALUE, [self.leaf()])
        if kind == "WORD":
            if word in ("U", "union"):
                kw = self.leaf()
                return self.node(g.UNION, [kw, self.parse_term()])
            if word in ("tc", "TC", "transitiveclosure"):
                kw = self.leaf()
                return self.node(g.TRANSITIVE_CLOSURE, [kw, self.parse_term()])
            if word == "collect":
                return self.parse_collect()
            if word == "separate":
                return self.parse_separate()
            if word == "recursion":
                return self.parse_recursion()
            if word == "decorate":
                kw = self.leaf()
                lp = self.expect("(")
                first = self.parse_term()
                comma = self.expect(",")
                second = self.parse_term()
                rp = self.expect(")")
                return self.node(g.DECORATION, [kw, lp, first, comma, second, rp])
            if word == "if":
                kw = self.leaf()
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
                kw = self.leaf()
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
            return self.node(g.ENUMERATE, [lb, self.leaf()])
        terms = [self.parse_labelled_term()]
        while self.at_punct(","):
            terms.append(self.leaf())
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
            raise ParseError("expected a term", self.peek()[2])
        outer = self.furthest, self.furthest_expected
        self.furthest = -1
        try:
            lp = self.expect("(")
            first = self.parse_term()
            if self.at_word("U", "union"):
                children = [first]
                while self.at_word("U", "union"):
                    children.append(self.leaf())
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
        kind, text, _ = self.tokens[self.pos]
        if kind == "LABELVALUE":
            if "*" in text:
                return self.node(g.WILDCARD_LABEL, [self.leaf()])
            return self.node(g.LABEL_VALUE, [self.leaf()])
        if kind == "WORD" and text not in g.KEYWORDS:
            return self.identifier_node(g.LABEL_VARIABLE)
        raise self.fail("a label")

    def parse_wildcard_or_label(self) -> ParseNode:
        if self.at_punct("*"):
            star = self.leaf()
            name = self.identifier_node(g.LABEL_VARIABLE)
            children = [star, name]
            if self.at_punct("*"):
                children.append(self.leaf())
            return self.node(g.WILDCARD_LABEL, children)
        operand = self.parse_label_operand()
        if operand.label != g.WILDCARD_LABEL and self.at_punct("*"):
            if operand.label in (g.LABEL_VARIABLE, g.LABEL_CONSTANT):
                return self.node(g.WILDCARD_LABEL, [operand, self.leaf()])
        return operand

    def parse_variable_pair(self) -> ParseNode:
        kind, text, position = self.tokens[self.pos]
        if kind == "LABELVALUE":
            if "*" in text:
                raise ParseError("wildcards are not allowed in variable pairs", position)
            label = self.node(g.LABEL_VALUE, [self.leaf()])
        else:
            label = self.declared(g.LABEL_VARIABLE)
        colon = self.expect(":")
        var = self.declared(g.SET_VARIABLE)
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
            children.append(self.leaf())
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
        var = self.declared(g.SET_VARIABLE)
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
            return self.leaf()
        raise self.fail("'in' or '<-'")

    def parse_where_kw(self) -> ParseNode:
        if self.at_word("where") or self.at_punct("|"):
            return self.leaf()
        raise self.fail("'where' or '|'")

    def parse_call(self, node_label: str, name_label: str) -> ParseNode:
        kw = self.expect("call")
        name = self.identifier_node(name_label)
        lp = self.expect("(")
        params = [self.parse_parameter()]
        while self.at_punct(","):
            params.append(self.leaf())
            params.append(self.parse_parameter())
        parameters = self.node(g.PARAMETERS, params)
        rp = self.expect(")")
        return self.node(node_label, [kw, name, lp, parameters, rp])

    def parse_parameter(self) -> ParseNode:
        if self.peek()[0] == "LABELVALUE":
            return self.parse_label_operand()
        return self.parse_term()

    # -- formulas ------------------------------------------------------------

    def parse_formula(self) -> ParseNode:
        kind, word, _ = self.tokens[self.pos]
        if kind == "WORD":
            if word in ("true", "false"):
                return self.node(g.BOOLEAN_LITERAL, [self.leaf()])
            if word == "not":
                kw = self.leaf()
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
        # set equality: term = term, in place (try_parse costs 2 frames a level)
        saved = self.save()
        try:
            lhs = self.parse_term()
            eq = self.expect("=")
            rhs = self.parse_term()
            return self.node(g.SET_EQUALITY, [lhs, eq, rhs])
        except ParseError:
            self.restore(saved)
        # label equality / relationship
        lhs = self.parse_wildcard_or_label()
        kind, text, position = self.tokens[self.pos]
        if text == "=" and kind == "PUNCT":
            eq = self.leaf()
            rhs = self.parse_wildcard_or_label()
            if lhs.label == g.WILDCARD_LABEL and rhs.label == g.WILDCARD_LABEL:
                raise ParseError("only one side of a label equality may carry "
                                 "wildcards", position)
            return self.node(g.LABEL_EQUALITY, [lhs, eq, rhs])
        if text in ("<", ">", "<=", ">=") and kind == "PUNCT":
            if lhs.label == g.WILDCARD_LABEL:
                raise ParseError("wildcards are not allowed in label comparisons",
                                 position)
            rel = self.leaf()
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
        kind, text, _ = self.tokens[self.pos]
        if self.at_word("and"):
            inner = self.parse_connective_chain(first, ("and",), g.CONJUNCTION)
        elif self.at_word("or"):
            inner = self.parse_connective_chain(first, ("or",), g.DISJUNCTION)
        elif text in g.QUASI_CONNECTIVES and (kind == "PUNCT" or kind == "WORD"):
            inner = self.parse_connective_chain(first, g.QUASI_CONNECTIVES,
                                                g.QUASI_IMPLICATION)
        else:
            inner = first
        rp = self.expect(")")
        return self.node(g.PAREN_FORMULA, [lp, inner, rp])

    def parse_connective_chain(self, first: ParseNode, connectives, label: str) -> ParseNode:
        children = [first]
        while self.peek()[1] in connectives and self.peek()[0] in ("WORD", "PUNCT"):
            children.append(self.leaf())
            children.append(self.parse_formula())
        return self.node(label, children)

    def parse_quantified(self) -> ParseNode:
        kw = self.leaf()
        root = g.FORALL if kw.label == "forall" else g.EXISTS
        pair = self.parse_variable_pair()
        inkw = self.parse_in_kw()
        term = self.parse_term()
        children = [kw, pair, inkw, term]
        if self.at_punct("."):
            children.append(self.leaf())
        quantifier = self.node(root, children)
        body = self.parse_formula()
        return self.node(g.QUANTIFIED, [quantifier, body])


# ---------------------------------------------------------------------------
# Bounding nodes
# ---------------------------------------------------------------------------

# the child that bounds a binder or declaration node, by the node's label
_BOUNDING_CHILD = dict.fromkeys(g.DECLARATION_CATEGORIES, -1)
_BOUNDING_CHILD.update({g.COLLECT: 6, g.SEPARATE: 4, g.RECURSION: 5,
                        g.FORALL: 3, g.EXISTS: 3})
_BOUNDED = frozenset(_BOUNDING_CHILD) | {g.QUANTIFIED}


def bounding_node(bn: ParseNode) -> Optional[ParseNode]:
    """The bounding term / formula / label-value node (BTFLVN) of a binder or
    declaration node: the expression that must not capture the names the
    binder declares.  Positions follow the fork shapes built by the parser;
    a quantified formula is bounded as its quantifier is."""
    if bn.label == g.QUANTIFIED:
        bn = bn.children[0]
    index = _BOUNDING_CHILD.get(bn.label)
    return None if index is None else bn.children[index]


def parse(source: str) -> ParseResult:
    """Parse one ';'-terminated top level command."""
    parser = _Parser(source)
    try:
        tree = parser.parse_top_level()
    except ParseError:
        raise ParseError("expected %s" % parser.furthest_expected, parser.furthest)
    except RecursionError:
        raise ParseError("expected a less deeply nested expression",
                         parser.peek()[2])
    kind, _, position = parser.peek()
    if kind != "EOF":
        raise ParseError("unexpected input after command", position)
    # binders finish inner first; in source order, of two that start together
    # (a quantified formula and its quantifier) the outer one ends later
    uses = parser.uses
    starts = [use.start for use in uses]
    binders = []
    for binder in sorted(parser.binders, key=lambda b: (b.start, -b.end)):
        btflvn = bounding_node(binder)
        binders.append((binder, btflvn, uses[bisect_left(starts, btflvn.start):
                                             bisect_left(starts, btflvn.end)]))
    return ParseResult(tree, parser.postorder, uses, binders)
