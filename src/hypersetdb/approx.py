"""Per-file local approximations of global bisimulation.

From one document alone two relations are computable: an upper approximation
(its negative facts are globally valid) and a lower approximation (pairs it
fails to separate are globally equal).  The upper one is computed by the No
prover that serves query-time equality, `bisim.saturate`, run over the
document's own equations on a fresh `FactStore`: names from other documents
have no equation there, so they stay unknown.  The lower one is computed by
the refinement kernel, `bisim.stable_blocks`, over the document's names,
which takes every name from another document as distinct from every other
name.  Combining both gives the simple approximation set: definite yes/no
facts about global equality shipped next to the document as an XML file.

Approximation files and trivial-oracle files share one grouped facts format:

    <root><facts set_name="url#x"><fact set_name="url#y" value="yes|no"/>...

with one <facts> group per name listing each later name it has a fact for;
oracle facts add a delay attribute in milliseconds.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .bisim import FactStore, Status, pair_key, saturate, stable_blocks
from .names import (Element, EquationSystem, NameError_, SetName, WdbError,
                    parse_full_name)
from .store import Fetcher

Pair = Tuple[SetName, SetName]


class ApproxError(WdbError):
    pass


class FactsFileError(WdbError):
    """Malformed grouped facts file."""


@dataclass
class Fragment:
    """One document's slice of the WDB: its defined names L and the equations
    for L.

    Names invented while flattening nested content (atom encodings and the
    like) are not part of L: the published approximation files list facts
    for the document's declared ids only.
    """

    document_url: str
    local: List[SetName]
    equations: Dict[SetName, List[Element]]

    @classmethod
    def from_system(cls, system: EquationSystem, document_url: str) -> "Fragment":
        local = [n for n in system.equations
                 if n.url == document_url and n not in system.generated]
        if not local:
            raise ApproxError("no equations from %s" % document_url)
        return cls(document_url, local,
                   {n: list(system.equations[n]) for n in local})


@dataclass
class ApproxSet:
    """The simple approximation of one fragment: pair -> True for globally
    equal, False for unequal; absent pairs are unknown."""

    simple: Dict[Pair, bool] = field(default_factory=dict)


def upper_approx(fragment: Fragment) -> Set[Pair]:
    """Negative facts derivable with non-local names unknown: they hold
    globally."""
    facts = FactStore()
    for x, y in itertools.combinations(fragment.local, 2):
        facts.ask_question(x, y)
    saturate(facts, fragment.equations)
    # a No needs both equations, so only pairs of local names are refuted
    return {key for key, status in facts.status.items() if status is Status.NO}


def lower_approx(fragment: Fragment) -> Set[Pair]:
    """Negative facts derivable when every non-local name is distinct from
    every other name: the pairs of local names that refinement puts in
    different blocks, each non-local member keyed by its own name.  Pairs of
    local names not derived here are globally equal."""
    blocks = stable_blocks(fragment.local, fragment.equations, outside=lambda m: m)
    return {pair_key(x, y) for x, y in itertools.combinations(fragment.local, 2)
            if blocks[x] != blocks[y]}


def simple_approx(fragment: Fragment) -> ApproxSet:
    """Globally valid yes/no facts derivable from this fragment alone."""
    out = ApproxSet()
    upper_neg = upper_approx(fragment)
    lower_neg = lower_approx(fragment)
    for x, y in itertools.combinations(fragment.local, 2):
        key = pair_key(x, y)
        if key in upper_neg:
            out.simple[key] = False
        elif key not in lower_neg:
            out.simple[key] = True
    return out


# ---------------------------------------------------------------------------
# Grouped facts files
# ---------------------------------------------------------------------------

def write_facts(root_tag: str, names: List[SetName],
                value: Callable[[SetName, SetName], Optional[bool]],
                delay: Optional[str] = None) -> str:
    """Render one <facts> group per name, listing each unordered pair once
    under its earlier name; pairs whose value is None are left out.  Every
    fact carries delay, when given, as its delay attribute."""
    root = ET.Element(root_tag)
    for i, first in enumerate(names):
        group = ET.SubElement(root, "facts")
        group.set("set_name", first.full)
        for second in names[i + 1:]:
            known = value(first, second)
            if known is None:
                continue
            fact = ET.SubElement(group, "fact")
            if delay is not None:
                fact.set("delay", delay)
            fact.set("set_name", second.full)
            fact.set("value", "yes" if known else "no")
    return '<?xml version="1.0"?>\n' + ET.tostring(root, encoding="unicode")


def read_facts(text: str, root_tag: str) -> List[Tuple[SetName, SetName, bool, float]]:
    """Parse a grouped facts file into (x, y, value, delay_ms) entries, the
    delay 0 when absent and otherwise a finite number of milliseconds, not
    negative; namespaced and plain element names are both accepted."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise FactsFileError("malformed %s file: %s" % (root_tag, exc))

    def local(tag: str) -> str:
        return tag.rpartition("}")[2]

    if local(root.tag) != root_tag:
        raise FactsFileError("unexpected root element %r" % root.tag)
    facts: List[Tuple[SetName, SetName, bool, float]] = []
    try:
        for group in root:
            if local(group.tag) != "facts":
                continue
            first = parse_full_name(group.attrib.get("set_name", ""))
            for fact in group:
                if local(fact.tag) != "fact":
                    continue
                second = parse_full_name(fact.attrib.get("set_name", ""))
                value = fact.attrib.get("value")
                if value not in ("yes", "no"):
                    raise FactsFileError("bad fact value %r" % value)
                delay = float(fact.attrib.get("delay", "0"))
                if not 0 <= delay < float("inf"):   # nan compares false
                    raise FactsFileError("bad fact delay %r" % fact.attrib["delay"])
                facts.append((first, second, value == "yes", delay))
    except (NameError_, ValueError) as exc:
        raise FactsFileError("malformed %s file: %s" % (root_tag, exc))
    return facts


# ---------------------------------------------------------------------------
# Approximation files
# ---------------------------------------------------------------------------

def approximation_url(document_url: str) -> str:
    """BibDB-f1.xml -> BibDB-f1.approximation.xml (same directory)."""
    if document_url.endswith(".xml"):
        return document_url[:-len(".xml")] + ".approximation.xml"
    return document_url + ".approximation"


def write_approx_file(document_url: str, fragment_names: List[SetName],
                      simple: Dict[Pair, bool]) -> str:
    """Render the simple approximation set in the grouped facts format."""
    return write_facts("simple-approximation", fragment_names,
                       lambda x, y: simple.get(pair_key(x, y)))


def read_approx_file(text: str) -> List[Tuple[SetName, SetName, bool]]:
    return [(x, y, value) for x, y, value, _ in read_facts(text, "simple-approximation")]


def generate_approximation_file(document_url: str, system: EquationSystem) -> str:
    fragment = Fragment.from_system(system, document_url)
    facts = simple_approx(fragment)
    return write_approx_file(document_url, fragment.local, facts.simple)


def make_approx_reader(fetcher: Fetcher):
    """An approximation reader for bisimilar(): fetches the approximation file
    sitting next to a document, silently empty when absent.  Only facts
    about two of that document's own names are kept: a file's facts about
    another document's names are not derived from its equations."""

    def reader(document_url: str) -> List[Tuple[SetName, SetName, bool]]:
        if document_url.startswith("local://"):
            return []
        try:
            text = fetcher(approximation_url(document_url))
        except Exception:
            return []
        try:
            facts = read_approx_file(text)
        except FactsFileError:
            return []
        return [(x, y, value) for x, y, value in facts
                if x.url == document_url and y.url == document_url]

    return reader
