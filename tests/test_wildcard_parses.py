"""A frozen record of what the parser makes of commands that put wildcard
labels where the grammar refuses them.

About 2,000 commands are generated with a fixed seed.  They mix wildcard
labels into label equalities, label comparisons, variable pairs and label
constants, nested in parentheses, `if` and `let`; half of them lose one
word, so most of those are no longer well-formed.  The record holds, for
each command, its outcome: the shape digest of the tree `parse` builds, or
the error it raises.  It was made while a refusal found inside the descent
was still replaced by the furthest failure, so the four refusals below
showed as "expected ..." errors.  The test checks that the parser builds
every recorded tree and raises every recorded error, except that a command
refused then may now be refused with one of the four reasons.

The sources are kept in the record, so the test does not depend on the
generator.  To record it with the parser of another checkout:

    PYTHONPATH=<checkout>/src python tests/test_wildcard_parses.py --record
"""

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import List

from hypersetdb.parser import ParseError, parse

RECORD = Path(__file__).with_name("golden_wildcard_parses.json")

# the reasons of the refusals made inside the descent
REFUSALS = (
    "label constants must be plain label values",
    "wildcards are not allowed in variable pairs",
    "only one side of a label equality may carry wildcards",
    "wildcards are not allowed in label comparisons",
)


def commands() -> List[str]:
    """1,000 generated commands, each followed by a copy that lost one word."""
    rng = random.Random(28)

    # a label site carries a wildcard one time in four
    def label():
        if rng.randrange(4):
            return rng.choice(["'a'", "l"])
        return rng.choice(["'a*'", "'*a'", "'*a*'", "* l", "l *", "* l *"])

    def pair():
        return "%s : x" % rng.choice(["'a'", "l", "l", "'a*'"])

    def declaration(depth):
        if rng.randrange(3):
            return "label constant l = %s" % rng.choice(["'a'", "'a'", "'b'", "'a*'"])
        return "set constant c = %s" % term(depth - 1)

    def term(depth):
        roll = rng.randrange(8 if depth > 0 else 2)
        if roll < 2:
            return ["{}", "x"][roll]
        if roll == 2:
            return "( %s )" % term(depth - 1)
        if roll == 3:
            return "{ %s : %s }" % (label(), term(depth - 1))
        if roll == 4:
            return "separate { %s in %s where %s }" % (pair(), term(depth - 1),
                                                        formula(depth - 1))
        if roll == 5:
            return "collect { 'a' : x where %s in %s }" % (pair(), term(depth - 1))
        if roll == 6:
            return "recursion p { %s in %s where %s }" % (pair(), term(depth - 1),
                                                          formula(depth - 1))
        if rng.randrange(2):
            return "let %s in %s endlet" % (declaration(depth), term(depth - 1))
        return "if %s then %s else %s fi" % (formula(depth - 1), term(depth - 1),
                                            term(depth - 1))

    def formula(depth):
        roll = rng.randrange(10 if depth > 0 else 3)
        if roll == 0:
            return "true"
        if roll == 1:
            return "%s = %s" % (label(), label())
        if roll == 2:
            return "%s %s %s" % (label(), rng.choice(["<", ">", "<=", ">="]), label())
        if roll == 3:
            return "%s = %s" % (term(depth - 1), term(depth - 1))
        if roll == 4:
            return "( %s )" % formula(depth - 1)
        if roll == 5:
            return "( %s %s %s )" % (formula(depth - 1),
                                     rng.choice(["and", "or", "=>", "<="]),
                                     formula(depth - 1))
        if roll == 6:
            return "%s : %s in %s" % (label(), term(depth - 1), term(depth - 1))
        if roll == 7:
            return "exists %s in %s . %s" % (pair(), term(depth - 1), formula(depth - 1))
        if roll == 8:
            return "if %s then %s else %s fi" % (formula(depth - 1), formula(depth - 1),
                                                formula(depth - 1))
        return "let %s in %s endlet" % (declaration(depth), formula(depth - 1))

    out = []
    for _ in range(1000):
        roll = rng.randrange(5)
        if roll < 3:
            command = "boolean query %s ;" % formula(3)
        elif roll == 3:
            command = "set query %s ;" % term(3)
        else:
            command = "library add %s ;" % declaration(3)
        words = command.split()
        out.append(" ".join(words))
        del words[rng.randrange(2, len(words))]
        out.append(" ".join(words))
    return out


def outcome(source: str) -> str:
    """The shape digest of the parse tree, or the error."""
    try:
        shape = parse(source).tree.shape()
    except ParseError as exc:
        return str(exc)
    return "tree " + hashlib.sha256(json.dumps(shape).encode()).hexdigest()[:16]


def test_the_parser_accepts_and_refuses_as_recorded():
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert len(record) >= 2000
    reasons = []
    for source, before in record:
        now = outcome(source)
        reasons.append(now.split(", ", 1)[-1])
        if now != before:
            # a refusal that now reaches the user was a refusal before too
            assert reasons[-1] in REFUSALS, (source, before, now)
            assert before.startswith("Error at character "), (source, before, now)
    outcomes = [before for _, before in record]
    assert sum(o.startswith("tree ") for o in outcomes) > 500
    assert sum(o.startswith("Error ") for o in outcomes) > 500
    for reason in REFUSALS:
        assert reasons.count(reason) >= 20, reason


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RECORD.write_text("[\n%s\n]\n" % ",\n".join(
        json.dumps([source, outcome(source)]) for source in commands()), encoding="utf-8")
