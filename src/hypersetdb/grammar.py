"""Query-language grammar data: tokens, syntactic categories and BNF forks.

Tokens are plain `(kind, text, position)` tuples, and the token list ends
with two EOF tokens, so the parser may look one token past the last real one
by a bare index.  A command that is not well-formed fails one way, with a
`ParseError`: `tokenize` raises it for a character no token starts with, and
`parser.parse` for everything else.

The grammar is held as a set of forks: a root category plus the sequence of
child labels (terminals or categories) it derives in one step.  Parse trees
are built from forks, and the contextual analysis relabels tree nodes by
looking forks up from their children, so fork sequences must identify their
root uniquely (identifier forks excepted, which share one shape by design).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

KEYWORDS = {
    "set", "query", "boolean", "library", "add", "list", "verbose", "exit",
    "let", "in", "endlet", "constant", "label", "be", "call",
    "collect", "separate", "where", "recursion", "decorate",
    "if", "then", "else", "fi", "forall", "exists",
    "not", "and", "or", "implies", "iff", "true", "false",
    "union", "U", "tc", "TC", "transitiveclosure",
}

MULTI_PUNCT = ("<=>", "<=", ">=", "=>", "<-")
SINGLE_PUNCT = "{}(),:;.=<>*|"

WORD_RE = re.compile(r"[A-Za-z0-9_\-]+")
SETNAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*://[A-Za-z0-9_\-.~/:%]*#[A-Za-z0-9_\-]+")
LABEL_VALUE_RE = re.compile(r"'(\*?)([A-Za-z0-9_\-]+)(\*?)'")
ATOM_RE = re.compile(r'"([A-Za-z0-9_\-]+)"')


class ParseError(Exception):
    """A command that is not well-formed: the reason, and the 0-based
    character position it refers to."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__("Error at character %d, %s" % (position + 1, message))
        self.position = position
        self.reason = message


# (kind, text, position): kind is WORD, SETNAME, LABELVALUE, ATOM, PUNCT or
# EOF, position the 0-based character offset of text
Token = Tuple[str, str, int]


# one scanner: the first alternative that matches wins, so punctuation is
# tried longest first; whitespace is skipped, any other character is an error
_TOKEN_RE = re.compile("|".join("(?P<%s>%s)" % alternative for alternative in (
    ("SETNAME", SETNAME_RE.pattern),
    ("LABELVALUE", LABEL_VALUE_RE.pattern),
    ("ATOM", ATOM_RE.pattern),
    ("WORD", WORD_RE.pattern),
    ("PUNCT", "|".join(map(re.escape, MULTI_PUNCT + tuple(SINGLE_PUNCT)))),
    ("SPACE", r"\s+"),
    ("UNEXPECTED", "."),
)), re.S)


def tokenize(source: str) -> List[Token]:
    """The tokens of source, then two EOF tokens."""
    tokens: List[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        if kind == "UNEXPECTED":
            raise ParseError("unexpected character %r (at character %d)"
                             % (m.group(), m.start() + 1), m.start())
        tokens.append((kind, m.group(), m.start()))
    eof = ("EOF", "", len(source))
    tokens += (eof, eof)
    return tokens


# ---------------------------------------------------------------------------
# Syntactic categories
# ---------------------------------------------------------------------------

SET_VARIABLE = "<set variable>"
SET_CONSTANT = "<set constant>"
LABEL_VARIABLE = "<label variable>"
LABEL_CONSTANT = "<label constant>"
SET_QUERY_NAME = "<set query name>"
BOOLEAN_QUERY_NAME = "<boolean query name>"
LABEL_VALUE = "<label value>"
WILDCARD_LABEL = "<wildcard label>"
SET_NAME = "<set name>"
ATOMIC_VALUE = "<atomic value>"
ENUMERATE = "<enumerate>"
UNION = "<union>"
MULTIPLE_UNION = "<multiple union>"
PAREN_TERM = "<parenthesized term>"
COLLECT = "<collect>"
SEPARATE = "<separate>"
TRANSITIVE_CLOSURE = "<transitive closure>"
RECURSION = "<recursion>"
DECORATION = "<decoration>"
IF_ELSE_TERM = "<if-else term>"
SET_QUERY_CALL = "<set query call>"
TERM_WITH_DECLS = "<delta-term with declarations>"
SET_EQUALITY = "<set equality>"
LABEL_EQUALITY = "<label equality>"
LABEL_RELATIONSHIP = "<label relationship>"
MEMBERSHIP = "<membership>"
BOOLEAN_QUERY_CALL = "<boolean query call>"
BOOLEAN_LITERAL = "<boolean literal>"
CONJUNCTION = "<conjunction>"
DISJUNCTION = "<disjunction>"
QUASI_IMPLICATION = "<quasi-implication>"
PAREN_FORMULA = "<parenthesized formula>"
QUANTIFIED = "<quantified formula>"
FORALL = "<forall>"
EXISTS = "<exists>"
NEGATED = "<negated formula>"
IF_ELSE_FORMULA = "<if-else formula>"
FORMULA_WITH_DECLS = "<delta-formula with declarations>"
VARIABLE_PAIR = "<variable pair>"
LABELLED_TERM = "<labelled term>"
LABELLED_TERMS = "<labelled terms>"
DECLARATIONS = "<declarations>"
SET_CONSTANT_DECL = "<set constant declaration>"
LABEL_CONSTANT_DECL = "<label constant declaration>"
SET_QUERY_DECL = "<set query declaration>"
BOOLEAN_QUERY_DECL = "<boolean query declaration>"
VARIABLES = "<variables>"
VARIABLE = "<variable>"
PARAMETERS = "<parameters>"
QUERY = "<query>"
LIBRARY_COMMAND = "<library command>"
TOP_LEVEL = "<top level command>"

IDENTIFIER_CATEGORIES = frozenset({
    SET_VARIABLE, SET_CONSTANT, LABEL_VARIABLE, LABEL_CONSTANT,
    SET_QUERY_NAME, BOOLEAN_QUERY_NAME,
})

TERM_CATEGORIES = frozenset({
    SET_VARIABLE, SET_CONSTANT, SET_NAME, ATOMIC_VALUE, ENUMERATE, UNION,
    PAREN_TERM, COLLECT, SEPARATE, TRANSITIVE_CLOSURE, RECURSION, DECORATION,
    IF_ELSE_TERM, SET_QUERY_CALL, TERM_WITH_DECLS,
})

FORMULA_CATEGORIES = frozenset({
    SET_EQUALITY, LABEL_EQUALITY, LABEL_RELATIONSHIP, MEMBERSHIP,
    BOOLEAN_QUERY_CALL, BOOLEAN_LITERAL, PAREN_FORMULA, QUANTIFIED, NEGATED,
    IF_ELSE_FORMULA, FORMULA_WITH_DECLS,
})

LABEL_CATEGORIES = frozenset({LABEL_VARIABLE, LABEL_CONSTANT, LABEL_VALUE})

DECLARATION_CATEGORIES = frozenset({
    SET_CONSTANT_DECL, LABEL_CONSTANT_DECL, SET_QUERY_DECL, BOOLEAN_QUERY_DECL,
})

BINDER_CATEGORIES = frozenset({
    TERM_WITH_DECLS, FORMULA_WITH_DECLS, COLLECT, SEPARATE, RECURSION, QUANTIFIED,
})

# class placeholders used in fork shapes
TERM = "#term"
FORMULA = "#formula"
LABEL = "#label"
DECLARATION = "#declaration"
PARAMETER = "#parameter"
GROUPABLE_TERM = "#groupable-term"       # term or bare multiple union
GROUPABLE_FORMULA = "#groupable-formula" # formula or bare connective chain

_CLASS_MEMBERS = {
    TERM: TERM_CATEGORIES,
    FORMULA: FORMULA_CATEGORIES,
    LABEL: LABEL_CATEGORIES,
    DECLARATION: DECLARATION_CATEGORIES,
    PARAMETER: TERM_CATEGORIES | LABEL_CATEGORIES,
    GROUPABLE_TERM: TERM_CATEGORIES | {MULTIPLE_UNION},
    GROUPABLE_FORMULA: FORMULA_CATEGORIES | {CONJUNCTION, DISJUNCTION,
                                             QUASI_IMPLICATION},
}

QUASI_CONNECTIVES = ("<=", "=>", "implies", "iff", "<=>")


def _matches(slot: str, label: str) -> bool:
    members = _CLASS_MEMBERS.get(slot)
    if members is not None:
        return label in members
    return slot == label


@dataclass(frozen=True)
class Fork:
    root: str
    shape: Tuple[str, ...]
    identifier: bool = False

    def matches(self, children: Sequence[str]) -> bool:
        return (len(children) == len(self.shape)
                and all(_matches(s, c) for s, c in zip(self.shape, children)))


def _fixed_forks() -> List[Fork]:
    forks: List[Fork] = []

    def add(root: str, *shape: str) -> None:
        forks.append(Fork(root, tuple(shape)))

    add(TOP_LEVEL, QUERY, ";")
    add(TOP_LEVEL, "library", LIBRARY_COMMAND, ";")
    add(TOP_LEVEL, "exit", ";")
    add(QUERY, "boolean", "query", FORMULA)
    add(QUERY, "set", "query", TERM)
    add(LIBRARY_COMMAND, "add", DECLARATIONS)
    add(LIBRARY_COMMAND, "list")
    add(LIBRARY_COMMAND, "list", "verbose")

    for eq in ("be", "="):
        add(SET_CONSTANT_DECL, "set", "constant", SET_CONSTANT, eq, TERM)
        add(LABEL_CONSTANT_DECL, "label", "constant", LABEL_CONSTANT, eq, LABEL_VALUE)
        add(SET_QUERY_DECL, "set", "query", SET_QUERY_NAME,
            "(", VARIABLES, ")", eq, TERM)
        add(BOOLEAN_QUERY_DECL, "boolean", "query", BOOLEAN_QUERY_NAME,
            "(", VARIABLES, ")", eq, FORMULA)
    add(VARIABLE, "set", SET_VARIABLE)
    add(VARIABLE, "label", LABEL_VARIABLE)

    add(ENUMERATE, "{", "}")
    add(ENUMERATE, "{", LABELLED_TERMS, "}")
    add(LABELLED_TERM, LABEL, ":", TERM)
    for u in ("U", "union"):
        add(UNION, u, TERM)
    add(PAREN_TERM, "(", GROUPABLE_TERM, ")")
    for kw in ("tc", "TC", "transitiveclosure"):
        add(TRANSITIVE_CLOSURE, kw, TERM)
    for inkw in ("in", "<-"):
        for wherekw in ("where", "|"):
            add(SEPARATE, "separate", "{", VARIABLE_PAIR, inkw, TERM,
                wherekw, FORMULA, "}")
            add(RECURSION, "recursion", SET_VARIABLE, "{", VARIABLE_PAIR,
                inkw, TERM, wherekw, FORMULA, "}")
            add(COLLECT, "collect", "{", LABELLED_TERM, wherekw,
                VARIABLE_PAIR, inkw, TERM, "}")
            add(COLLECT, "collect", "{", LABELLED_TERM, wherekw,
                VARIABLE_PAIR, inkw, TERM, "and", FORMULA, "}")
    add(DECORATION, "decorate", "(", TERM, ",", TERM, ")")
    add(IF_ELSE_TERM, "if", FORMULA, "then", TERM, "else", TERM, "fi")
    add(SET_QUERY_CALL, "call", SET_QUERY_NAME, "(", PARAMETERS, ")")
    add(BOOLEAN_QUERY_CALL, "call", BOOLEAN_QUERY_NAME, "(", PARAMETERS, ")")
    add(TERM_WITH_DECLS, "let", DECLARATIONS, "in", TERM, "endlet")
    add(FORMULA_WITH_DECLS, "let", DECLARATIONS, "in", FORMULA, "endlet")

    add(SET_EQUALITY, TERM, "=", TERM)
    add(LABEL_EQUALITY, LABEL, "=", LABEL)
    add(LABEL_EQUALITY, LABEL, "=", WILDCARD_LABEL)
    add(LABEL_EQUALITY, WILDCARD_LABEL, "=", LABEL)
    for rel in ("<", ">", "<=", ">="):
        add(LABEL_RELATIONSHIP, LABEL, rel, LABEL)
    for inkw in ("in", "<-"):
        add(MEMBERSHIP, LABELLED_TERM, inkw, TERM)
    add(BOOLEAN_LITERAL, "true")
    add(BOOLEAN_LITERAL, "false")
    add(PAREN_FORMULA, "(", GROUPABLE_FORMULA, ")")
    add(QUANTIFIED, FORALL, FORMULA)
    add(QUANTIFIED, EXISTS, FORMULA)
    for kw, root in (("forall", FORALL), ("exists", EXISTS)):
        for inkw in ("in", "<-"):
            add(root, kw, VARIABLE_PAIR, inkw, TERM)
            add(root, kw, VARIABLE_PAIR, inkw, TERM, ".")
    add(NEGATED, "not", FORMULA)
    add(IF_ELSE_FORMULA, "if", FORMULA, "then", FORMULA, "else", FORMULA, "fi")

    for lab in (LABEL_VARIABLE, LABEL_CONSTANT):
        add(WILDCARD_LABEL, "*", lab)
        add(WILDCARD_LABEL, lab, "*")
        add(WILDCARD_LABEL, "*", lab, "*")

    return forks


FIXED_FORKS: List[Fork] = _fixed_forks()


def _index_forks(forks: List[Fork]) -> Dict[Tuple[int, str], List[Fork]]:
    """(arity, first child label) -> the forks that can match, in the order
    given; a class slot in first position is expanded to its members."""
    index: Dict[Tuple[int, str], List[Fork]] = {}
    for fork in forks:
        first = fork.shape[0]
        for label in _CLASS_MEMBERS.get(first, (first,)):
            index.setdefault((len(fork.shape), label), []).append(fork)
    return index


_FORK_INDEX = _index_forks(FIXED_FORKS)

# identifier forks: one alphanumeric leaf, six possible roots
IDENTIFIER_FORKS: List[Fork] = [
    Fork(category, ("#identifier-leaf",), identifier=True)
    for category in sorted(IDENTIFIER_CATEGORIES)
]


def is_identifier_leaf(label: str) -> bool:
    return bool(WORD_RE.fullmatch(label)) and label not in KEYWORDS


# Kleene-repetition rules: (root, member class, separators, fewest members)
_VARIADIC_RULES = (
    (DECLARATIONS, DECLARATION_CATEGORIES, (",",), 1),
    (VARIABLES, frozenset({VARIABLE}), (",",), 1),
    (PARAMETERS, _CLASS_MEMBERS[PARAMETER], (",",), 1),
    (LABELLED_TERMS, frozenset({LABELLED_TERM}), (",",), 1),
    (MULTIPLE_UNION, TERM_CATEGORIES, ("U", "union"), 2),
    (CONJUNCTION, FORMULA_CATEGORIES, ("and",), 2),
    (DISJUNCTION, FORMULA_CATEGORIES, ("or",), 2),
    (QUASI_IMPLICATION, FORMULA_CATEGORIES, QUASI_CONNECTIVES, 2),
)
_SEPARATORS = frozenset(s for _, _, separators, _ in _VARIADIC_RULES for s in separators)
_MEMBERS = frozenset().union(*(members for _, members, _, _ in _VARIADIC_RULES))


def _variadic_match(children: Sequence[str]) -> List[str]:
    """Match the Kleene-repetition rules, which generate forks of unbounded
    arity; returns the matching roots."""
    n = len(children)
    if (n % 2 == 0 or children[0] not in _MEMBERS
            or (n > 1 and children[1] not in _SEPARATORS)):
        return []
    members, separators = children[0::2], children[1::2]
    return [root for root, member_class, allowed, minimum in _VARIADIC_RULES
            if n >= 2 * minimum - 1
            and all(s in allowed for s in separators)
            and all(m in member_class for m in members)]


def fork_table() -> List[Fork]:
    """The finite fork presentation of the grammar: every fixed fork plus the
    identifier forks.  Kleene-repetition rules (declarations, parameters,
    connective chains, ...) generate unbounded arities and are matched by
    fork_candidates instead; set-name / label-value / atomic-value leaves are
    recognised by their character shape."""
    return FIXED_FORKS + IDENTIFIER_FORKS


def fork_candidates(children: Sequence[str]) -> List[str]:
    """All categories whose fork derives exactly this child-label sequence.

    Set-name, label-value, atomic-value and identifier leaves are recognised
    by their shape; <variable pair> is structural (built directly by the
    parser around its declared variables) and is deliberately not produced.
    """
    indexed = _FORK_INDEX.get((len(children), children[0])) if children else None
    roots = [f.root for f in indexed or () if f.matches(children)]
    roots.extend(_variadic_match(children))
    if len(children) == 1:
        leaf = children[0]
        if SETNAME_RE.fullmatch(leaf):
            roots.append(SET_NAME)
        elif ATOM_RE.fullmatch(leaf):
            roots.append(ATOMIC_VALUE)
        elif LABEL_VALUE_RE.fullmatch(leaf):
            m = LABEL_VALUE_RE.fullmatch(leaf)
            if m.group(1) or m.group(3):
                roots.append(WILDCARD_LABEL)
            else:
                roots.append(LABEL_VALUE)
        elif is_identifier_leaf(leaf):
            roots.extend(f.root for f in IDENTIFIER_FORKS)
    return roots


def unique_fork(children: Sequence[str]) -> Optional[str]:
    """The unique non-identifier fork root for this child sequence, or None.

    By the fork-uniqueness property, distinct forks share a child sequence
    only when all of them are identifier forks, so dropping the identifier
    candidates leaves at most one root.

    The answer for two or more children is cached in a bounded cache: such
    a sequence holds terminals and categories only.  A single child may be
    user text (a set name, an atomic value, a label value), which is not.
    """
    if len(children) > 1:
        return _unique_fork(tuple(children))
    return _unique_fork.__wrapped__(children)


@functools.lru_cache(maxsize=1024)
def _unique_fork(children: Sequence[str]) -> Optional[str]:
    candidates = [r for r in fork_candidates(children)
                  if r not in IDENTIFIER_CATEGORIES]
    if len(candidates) == 1:
        return candidates[0]
    return None
