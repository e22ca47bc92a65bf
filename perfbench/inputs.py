"""Seeded inputs for the workloads.

The seed renames every set id, shuffles equation and element order in the
XML, picks the bib-session command order and draws the equality questions.
Order carries no meaning in a set, so every expected answer follows from the
renaming alone.  Expected answers come from the brute-force partition
(`naive_bisimulation`) of the whole generated WDB.  Nothing here is timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from hypersetdb import xmlwdb
from hypersetdb.bisim import naive_bisimulation
from hypersetdb.cli import LIBRARY_OK, NOT_WELL_TYPED, WELL_TYPED
from hypersetdb.names import Element, EquationSystem, SetName

Key = Hashable
Atom = Tuple[str, str]            # ("atom", text): an atom {text:{}}
Target = Union[Key, Atom]
FileSpec = List[Tuple[Key, List[Tuple[str, Target]]]]


def atom(text: str) -> Atom:
    return ("atom", text)


def _is_atom(target: Target) -> bool:
    return isinstance(target, tuple) and len(target) == 2 and target[0] == "atom"


@dataclass
class Wdb:
    """A generated WDB: XML documents by URL, the full name of every key,
    the union of all documents' equations and its bisimulation classes."""

    documents: Dict[str, str]
    names: Dict[Key, SetName]
    system: EquationSystem
    blocks: Dict[SetName, int]

    def equal(self, x: SetName, y: SetName) -> bool:
        return self.blocks[x] == self.blocks[y]

    def classes_reachable(self, root: SetName) -> int:
        return len({self.blocks[n] for n in self.system.reachable(root)})


def build_wdb(files: Dict[str, FileSpec], prefix, rng: random.Random) -> Wdb:
    """Render the files with seed-drawn ids and shuffled orders.  `prefix(key)`
    gives the readable start of a key's id."""
    owner = {key: url for url, spec in files.items() for key, _ in spec}
    taken = set()
    names: Dict[Key, SetName] = {}
    for key, url in owner.items():
        while True:
            simple = "%s%05d" % (prefix(key), rng.randrange(100000))
            if simple not in taken:
                break
        taken.add(simple)
        names[key] = SetName(url, simple)

    documents: Dict[str, str] = {}
    for url, spec in files.items():
        lines = ['<?xml version="1.0"?>', '<set:eqns xmlns:set="%s">' % xmlwdb.SET_NS]
        equations = list(spec)
        rng.shuffle(equations)
        for key, elements in equations:
            lines.append('  <set:eqn set:id="%s">' % names[key].simple)
            elements = list(elements)
            rng.shuffle(elements)
            for label, target in elements:
                if _is_atom(target):
                    lines.append('    <%s>%s</%s>' % (label, target[1], label))
                elif owner[target] == url:
                    lines.append('    <%s set:ref="%s"/>' % (label, names[target].simple))
                else:
                    lines.append('    <%s set:href="%s"/>' % (label, names[target].full))
            lines.append('  </set:eqn>')
        lines.append('</set:eqns>')
        documents[url] = "\n".join(lines) + "\n"

    system = EquationSystem()
    for url, text in documents.items():
        system.merge(xmlwdb.load_equations(text, url))
    return Wdb(documents, names, system, naive_bisimulation(system))


# ---------------------------------------------------------------------------
# The paper's bibliography WDB and the queries over it
# ---------------------------------------------------------------------------

BIBDB_F1: FileSpec = [
    ("BibDB", [("paper", "p1"), ("paper", "p2"), ("paper", "p3"),
               ("book", "b1"), ("book", "b2")]),
    ("b1", [("refers-to", "b2"), ("refers-to", "p1")]),
    ("b2", [("author", atom("Jones")), ("title", atom("Databases"))]),
]
BIBDB_F2: FileSpec = [
    ("p1", [("refers-to", "p2")]),
    ("p2", [("author", atom("Smith")), ("title", atom("Databases")),
            ("refers-to", "p3")]),
    ("p3", [("author", atom("Jones")), ("title", atom("Databases"))]),
]


def bibdb(rng: random.Random, directory: Path) -> Wdb:
    """The two-file BibDB written to `directory`, served over file:// URLs."""
    f1 = directory.joinpath("BibDB-f1.xml").as_uri()
    f2 = directory.joinpath("BibDB-f2.xml").as_uri()
    wdb = build_wdb({f1: BIBDB_F1, f2: BIBDB_F2}, str, rng)
    for url, text in wdb.documents.items():
        Path(directory, url.rpartition("/")[2]).write_text(text, encoding="utf-8")
    return wdb


@dataclass
class Expected:
    """What a command must produce.  `present`/`absent`: substrings of the
    printed output.  `boolean`: a truth value.  `system`/`root`: a set
    bisimilar to `root` in `system` (which may mention WDB names)."""

    present: Sequence[str] = ()
    absent: Sequence[str] = ()
    boolean: Optional[bool] = None
    system: Optional[EquationSystem] = None
    root: Optional[SetName] = None


@dataclass
class Command:
    name: str
    text: str
    expected: Expected


class ExpectedSets:
    """Hand-encoded expected sets; atoms are {text:{}}, WDB names are used
    directly."""

    URL = "mem://expected.xml"

    def __init__(self) -> None:
        self.system = EquationSystem()
        self.empty = self.define("EMPTY", [])

    def define(self, simple: str, elements: List[Tuple[str, SetName]]) -> SetName:
        name = SetName(self.URL, simple)
        self.system.define(name, [Element(label, member) for label, member in elements])
        return name

    def expect(self, simple: str, elements: List[Tuple[str, SetName]]) -> Expected:
        return Expected(present=[WELL_TYPED], system=self.system,
                        root=self.define(simple, elements))


FIVE_EDGE_GRAPH = ("let set constant g = { "
                   "'null':call Pair(\"a\",\"b\"), 'null':call Pair(\"b\",\"a\"), "
                   "'null':call Pair(\"a\",\"c\"), 'null':call Pair(\"a\",\"d\"), "
                   "'null':call Pair(\"b\",\"d\") } in %s endlet;")


def bib_commands(wdb: Wdb, rng: random.Random) -> List[Command]:
    """One session's commands in seed order: the worked reference query, a
    TC_along_label path query, a wildcard separation, a quantified boolean
    query, an equality, decoration with Can, library add/list and one
    ill-typed query."""
    n = {key: name.full for key, name in wdb.names.items()}
    names = wdb.names
    sets = ExpectedSets()
    book_members = [el.member for el in wdb.system[names["BibDB"]] if el.label == "book"]
    quantified = any(
        wdb.equal(m, names["p3"]) and all("t" in el.label for el in wdb.system[m])
        for m in book_members)
    x, y = rng.sample(sorted(names), 2)
    omega = SetName(ExpectedSets.URL, "OMEGA")
    sets.system.define(omega, [Element("null", omega), Element("null", sets.empty)])

    commands = [
        Command("collect", """set query
          let set constant BibDB be %s,
              set constant b2 be %s
          in collect { pub-type:pub
              where pub-type:pub in BibDB
              and exists 'refers-to':ref in pub . ref=b2
            }
          endlet;""" % (n["BibDB"], n["b2"]),
                sets.expect("COLLECT", [("paper", names["p2"]), ("book", names["b1"])])),
        Command("path", """set query
          let set constant BibDB = %s,
              set constant b1 = %s,
              set constant b2 = %s
          in separate {
              pub-type:x in BibDB
              where exists m:y in separate {
                      n:xx in call TC_along_label('refers-to',b1)
                      where 'refers-to':b2 in xx
                    } . ( x=y and 'author':"Smith" in x )
            }
          endlet;""" % (n["BibDB"], n["b1"], n["b2"]),
                sets.expect("PATH", [("paper", names["p2"])])),
        Command("wildcard", "set query let set constant BibDB = %s in "
                            "separate { L:x in BibDB where L = 'pa*' } endlet;" % n["BibDB"],
                sets.expect("WILDCARD", [("paper", names["p1"]), ("paper", names["p2"]),
                                         ("paper", names["p3"])])),
        Command("quantified", "boolean query let set constant BibDB = %s, "
                              "set constant p3 = %s in exists 'book':x in BibDB . "
                              "( x = p3 and forall L:y in x . L = '*t*' ) endlet;"
                % (n["BibDB"], n["p3"]),
                Expected(present=[WELL_TYPED], boolean=quantified)),
        Command("equality", "boolean query %s = %s;" % (n[x], n[y]),
                Expected(present=[WELL_TYPED], boolean=wdb.equal(names[x], names[y]))),
        Command("decorate", "set query " + FIVE_EDGE_GRAPH % 'call Can ( decorate (g, "a") )',
                Expected(present=[WELL_TYPED], system=sets.system, root=omega)),
        Command("decorate-equal", "boolean query " +
                FIVE_EDGE_GRAPH % 'decorate (g, "a") = decorate (g, "b")',
                Expected(present=[WELL_TYPED], boolean=True)),
        Command("library-add", "library add set constant favourite = %s;" % n["b1"],
                Expected(present=[LIBRARY_OK])),
        Command("library-list", "library list;", Expected()),
        Command("ill-typed", "set query collect { pub-type:pub where pub-type:pub in BibDB "
                             "and exists 'refers-to':ref in pub . ref=b2 };",
                Expected(present=[NOT_WELL_TYPED, "BibDB not declared", "b2 not declared"])),
    ]
    rng.shuffle(commands)
    added = False
    for command in commands:
        if command.name == "library-add":
            added = True
        elif command.name == "library-list":
            listed = ["set query StrictLinOrder_on_TC (set z)", "set constant favourite"]
            command.expected = Expected(present=[LIBRARY_OK] + listed[:1 + added],
                                        absent=listed[1 + added:])
    return commands


def linorder_commands(wdb: Wdb, root: str) -> List[str]:
    """The criterion-8 pair over the named root of the WDB."""
    full = wdb.names[root].full
    return ["set query let set constant BibDB = %s in "
            "call StrictLinOrder_on_TC(BibDB) endlet;" % full,
            "set query let set constant BibDB = %s in "
            "call SuccessorPairs( call StrictLinOrder_on_TC(BibDB) ) endlet;" % full]


# ---------------------------------------------------------------------------
# The distributed WDB: split chains, self-contained cycles, a fan-out
# ---------------------------------------------------------------------------

@dataclass
class WdbSizes:
    chain_names: int
    chain_files: int
    cycle_files: int
    cycle_names: int
    fan_names: int
    asks: int


def _chain(keys: List[Key], urls: List[str]) -> Dict[str, FileSpec]:
    """A straight chain k1 -> k2 -> ... -> kN -> {} split contiguously."""
    files: Dict[str, FileSpec] = {url: [] for url in urls}
    for index, key in enumerate(keys):
        url = urls[index * len(urls) // len(keys)]
        elements = [("e", keys[index + 1])] if index + 1 < len(keys) else []
        files[url].append((key, elements))
    return files


def distributed_wdb(rng: random.Random, sizes: WdbSizes
                    ) -> Tuple[Wdb, List[str], List[Tuple[SetName, SetName, bool]]]:
    """A WDB and its isomorphic copy (sides A and B) with their root URLs and
    the equality questions: for each structure x1 ? x1' (positive) and
    x1 ? x2' (negative)."""
    files: Dict[str, FileSpec] = {}
    roots: List[str] = []
    for side in ("A", "B"):
        base = "mem://wdb%s" % side
        chain_urls = ["%s/chain-%d.xml" % (base, f) for f in range(sizes.chain_files)]
        files.update(_chain([(side, "chain", i) for i in range(1, sizes.chain_names + 1)],
                            chain_urls))
        roots.append(chain_urls[0])
        for j in range(sizes.cycle_files):
            # a cycle of distinguishable nodes: node 1 alone carries 'm':{}
            url = "%s/cycle-%d.xml" % (base, j)
            m = sizes.cycle_names
            spec: FileSpec = [((side, "cycle%d" % j, 0), [])]
            for i in range(1, m + 1):
                elements = [("e", (side, "cycle%d" % j, i % m + 1))]
                if i == 1:
                    elements.append(("m", (side, "cycle%d" % j, 0)))
                spec.append(((side, "cycle%d" % j, i), elements))
            files[url] = spec
            roots.append(url)
        aux = sizes.fan_names // 3
        main = sizes.fan_names - 2 * aux
        main_keys = [(side, "fan", i) for i in range(1, main + 1)]
        fan = _chain(main_keys, ["%s/main.xml" % base])
        for part in ("a", "b"):
            part_keys = [(side, "fan" + part, i) for i in range(1, aux + 1)]
            fan.update(_chain(part_keys, ["%s/aux-%s.xml" % (base, part)]))
            fan["%s/main.xml" % base][-1][1].append(("e", part_keys[0]))
        files.update(fan)
        roots.append("%s/main.xml" % base)
    # ids keep the structural order under sorting (the engine resolves
    # pairs in sorted order, and its work depends on that order)
    wdb = build_wdb(files, lambda key: "%s%s_%03d_" % key, rng)
    questions = []
    for structure in ["chain", "fan"] + ["cycle%d" % j for j in range(sizes.cycle_files)]:
        def node(side, i):
            return wdb.names[(side, structure, i)]
        questions.append((node("A", 1), node("B", 1), True))
        questions.append((node("A", 1), node("B", 2), False))
    for x, y, answer in questions:
        if wdb.equal(x, y) is not answer:
            raise AssertionError("generator bug: %s ? %s" % (x.full, y.full))
    return wdb, roots, questions


def ask_pairs(wdb: Wdb, count: int, rng: random.Random) -> List[Tuple[SetName, SetName, bool]]:
    """ASK requests: half pair a name with its copy on the other side, half
    are uniform pairs of names; each with its brute-force answer."""
    keys = sorted(wdb.names, key=str)
    pairs = []
    for index in range(count):
        key = rng.choice(keys)
        if index % 2 == 0:
            other = ("B" if key[0] == "A" else "A",) + key[1:]
        else:
            other = rng.choice(keys)
        x, y = wdb.names[key], wdb.names[other]
        pairs.append((x, y, wdb.equal(x, y)))
    return pairs
