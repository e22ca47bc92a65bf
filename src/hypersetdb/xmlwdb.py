"""XML-WDB file format: validation, transformation to flat set equations
(attribute / atomic-data / tag elimination rules) and the inverse writer.

Validation and transformation are one iterative pass over the document,
which checks the rules and writes the flat equations together, so a
document nested thousands of elements deep loads like any other.

An XML-WDB document has root <set:eqns> holding <set:eqn set:id="..."> children
whose content is arbitrary XML.  Local references use set:ref="simple-name",
cross-document ones set:href="url#simple-name".  Element order and repetition
are irrelevant to the set semantics.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from .names import (
    Element, EquationSystem, FlatExpr, SetName, WdbError, is_identifier, parse_set_name,
)

SET_NS = "http://www.csc.liv.ac.uk/~molyneux/XML-WDB"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

LABEL_TAG_RE = re.compile(r"[A-Za-z_][\w\-.]*\Z")


class XmlWdbError(WdbError):
    pass


@dataclass
class XmlWdbDocument:
    source_url: str
    root: ET.Element

    @classmethod
    def parse(cls, text: str, source_url: str) -> "XmlWdbDocument":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise XmlWdbError("not well-formed XML (%s): %s" % (source_url, exc))
        return cls(source_url, root)


# the namespace-qualified names of set:eqns, set:eqn, set:id, set:ref and set:href
_EQNS, _EQN, _ID, _REF, _HREF = ("{%s}%s" % (SET_NS, local)
                                 for local in ("eqns", "eqn", "id", "ref", "href"))
# attributes that do not become tags
_SPECIAL_ATTRIBUTES = frozenset((_ID, _REF, _HREF))


@dataclass
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return "%s: %s" % (self.code, self.message)


# ---------------------------------------------------------------------------
# XML -> set equations: one pass checks the rules and applies the attribute,
# atomic-data and tag elimination rules
# ---------------------------------------------------------------------------

def _local_tag(tag: str) -> str:
    return tag.rpartition("}")[2]


# An entry of a bracket is (label, target).  The target is a SetName for a
# reference, () for an empty bracket, an element for the bracket of its
# attributes and content, or an iterator over the entries of an attribute's
# bracket.
Entries = Iterator[Tuple[str, Any]]


def _walk(doc: XmlWdbDocument) -> Tuple[List[Violation], EquationSystem, List[str]]:
    """Returns the violations (root and set:eqn checks, then nested
    specials, dangling refs and bad hrefs, each in document order), the flat
    system (meaningful only without violations) and the set:href values.

    Attributes (other than set:ref/set:href) become nested tags, text tokens
    become empty elements, set:ref/set:href become name references; an
    element carrying a reference contributes tag:{content} only if content
    remains.  The nested brackets of equation x are named x-e1, x-e2, ... in
    preorder, a taken name being skipped without advancing the count, and
    defined in postorder.
    """
    url = doc.source_url
    out: List[Violation] = []
    system = EquationSystem()
    hrefs: List[str] = []
    root = doc.root
    if root.tag != _EQNS:
        out.append(Violation("bad-root", "root element is %s, expected set:eqns" % root.tag))
        return out, system, hrefs
    for attr in root.attrib:
        # xsi:* schema hints appear on the published example files; tolerated.
        if not attr.startswith("{%s}" % XSI_NS):
            out.append(Violation("root-attribute", "set:eqns carries attribute %s" % attr))

    ids: Set[str] = set()
    eqns: List[Tuple[ET.Element, str]] = []
    for child in root:
        if child.tag != _EQN:
            out.append(Violation("bad-eqn", "child %s of set:eqns is not set:eqn" % child.tag))
            continue
        eqn_id = child.attrib.get(_ID)
        # the content of an equation without an id is still checked
        eqns.append((child, eqn_id or ""))
        if eqn_id is None:
            out.append(Violation("missing-id", "set:eqn without required set:id"))
            continue
        for attr in child.attrib:
            if attr != _ID:
                out.append(Violation("eqn-attribute", "set:eqn carries attribute %s" % attr))
        if not is_identifier(eqn_id):
            out.append(Violation("bad-id", "set:id %r is not a simple set name" % eqn_id))
        if eqn_id in ids:
            out.append(Violation("duplicate-id", "set:id %r defined twice" % eqn_id))
        ids.add(eqn_id)

    nested: List[Violation] = []
    dangling: List[Violation] = []
    bad_hrefs: List[Violation] = []

    def href_target(href: str) -> Optional[SetName]:
        hrefs.append(href)
        try:
            target = parse_set_name(href, base_url=url) if "#" in href else None
        except WdbError:
            target = None
        if target is None:
            problem = "is not a full set name"
        elif target.is_local():
            problem = "names a session-generated set"
        else:
            return target
        bad_hrefs.append(Violation("bad-href", "set:href %r %s" % (href, problem)))
        return None

    def entries(elem: ET.Element) -> Entries:
        """The bracket of elem: its attributes, text tokens, the entries of
        its children and their tails.  A child is checked when it is
        reached, so checks run in document order."""
        for key, value in elem.attrib.items():
            if key not in _SPECIAL_ATTRIBUTES:
                yield _local_tag(key), ((token, ()) for token in value.split())
        if elem.text:
            for token in elem.text.split():
                yield token, ()
        for sub in elem:
            attrib = sub.attrib
            if sub.tag in (_EQNS, _EQN):
                nested.append(Violation("nested-special",
                                        "%s nested inside arbitrary content" % sub.tag))
            if _ID in attrib:
                nested.append(Violation("nested-special", "set:id on arbitrary element"))
            tag = _local_tag(sub.tag)
            ref = attrib.get(_REF)
            href = attrib.get(_HREF)
            if ref is None and href is None:
                yield tag, sub
            else:
                if ref is not None:
                    if ref not in ids:
                        dangling.append(Violation(
                            "dangling-ref", "set:ref %r has no local set:id" % ref))
                    yield tag, SetName(url, ref)
                if href is not None:
                    target = href_target(href)
                    if target is not None:
                        yield tag, target
                # content: children, text or attributes besides the references
                if (len(sub) or (sub.text and not sub.text.isspace())
                        or len(attrib) > (ref is not None) + (href is not None)):
                    yield tag, sub
            if sub.tail:
                for token in sub.tail.split():
                    yield token, ()

    taken = set(ids)
    for eqn, simple in eqns:
        top = SetName(url, simple)
        counter = 0
        frames: List[Tuple[SetName, FlatExpr, Entries]] = [(top, [], entries(eqn))]
        while frames:
            name, elements, pending = frames[-1]
            for label, target in pending:
                if target.__class__ is SetName:
                    elements.append(Element(label, target))
                    continue
                number = counter = counter + 1
                while "%s-e%d" % (simple, number) in taken:
                    number += 1
                fresh = "%s-e%d" % (simple, number)
                taken.add(fresh)
                member = SetName(url, fresh)
                elements.append(Element(label, member))
                if target == ():
                    system.define(member, [], generated=True)
                    continue
                # entries() never calls itself, so the walk leaves no
                # reference cycle behind for the garbage collector
                if target.__class__ is ET.Element:
                    target = entries(target)
                frames.append((member, [], target))
                break
            else:
                frames.pop()
                if frames:
                    system.define(name, elements, generated=True)
                elif name not in system:    # a repeated or missing id is a violation
                    system.define(name, elements)
    return out + nested + dangling + bad_hrefs, system, hrefs


def validate(doc: XmlWdbDocument, deep: bool = False,
             fetcher: Optional[Callable[[str], str]] = None) -> List[Violation]:
    """Check the XML-WDB structural rules; returns all violations found.

    With deep=True every set:href target document is fetched and checked to
    define the referenced simple name (requires a fetcher).
    """
    if deep and fetcher is None:
        raise XmlWdbError("deep validation requires a fetcher")
    out, _, hrefs = _walk(doc)
    if deep:
        defined: Dict[str, Optional[Set[str]]] = {}   # None: the fetch failed
        for href in hrefs:
            if "#" not in href:
                continue
            url, _, simple = href.rpartition("#")
            if url == doc.source_url:
                continue
            if url not in defined:
                try:
                    other = XmlWdbDocument.parse(fetcher(url), url)
                except Exception as exc:
                    out.append(Violation("href-fetch", "cannot fetch %s: %s" % (url, exc)))
                    defined[url] = None
                    continue
                defined[url] = {e.attrib.get(_ID, "") for e in other.root}
            names = defined[url]
            if names is not None and simple not in names:
                out.append(Violation("dangling-href",
                                     "%s does not define %r" % (url, simple)))
    return out


def to_equations(doc: XmlWdbDocument) -> EquationSystem:
    """Apply the elimination rules; simple ids become full names against the
    document URL.  Raises XmlWdbError on an invalid document."""
    problems, system, _ = _walk(doc)
    if problems:
        raise XmlWdbError("invalid XML-WDB document %s: %s"
                          % (doc.source_url, "; ".join(str(p) for p in problems)))
    return system


def load_equations(text: str, source_url: str) -> EquationSystem:
    return to_equations(XmlWdbDocument.parse(text, source_url))


# ---------------------------------------------------------------------------
# Set equations -> XML
# ---------------------------------------------------------------------------

def from_equations(system: EquationSystem, target_url: str) -> str:
    """Write a system whose equations all belong to target_url as an XML-WDB
    document.

    Names marked as generated (invented while flattening) are folded back:
    atom-shaped equations {X:{}} print as text X, other generated single-use
    names become nested elements.  The text is written directly, as
    ElementTree would serialize the same elements, by one pass with a stack
    of open elements, so a document nested thousands deep is written like
    any other.
    """
    for name in system.equations:
        if name.url != target_url:
            raise XmlWdbError("equation %s does not belong to %s" % (name.full, target_url))
        if not is_identifier(name.simple):
            raise XmlWdbError("name not serializable as identifier: %r" % name.simple)

    ref_count: Dict[SetName, int] = {}
    referrer: Dict[SetName, SetName] = {}  # the name whose equation holds it
    for name, expr in system.equations.items():
        for el in expr:
            if not LABEL_TAG_RE.match(el.label):
                raise XmlWdbError("label not serializable as a tag: %r" % el.label)
            ref_count[el.member] = ref_count.get(el.member, 0) + 1
            referrer[el.member] = name

    def inlinable(name: SetName) -> bool:
        return (name in system.generated and name in system.equations
                and ref_count.get(name, 0) == 1)

    def atom_label(name: SetName) -> Optional[str]:
        expr = system.equations.get(name)
        if expr is None or len(expr) != 1:
            return None
        label, member = expr[0]
        if system.equations.get(member) == [] and is_identifier(label):
            return label
        return None

    # the names printed inside the one equation that holds them, and so
    # given no <set:eqn> of their own: an atom whose empty member is
    # inlinable too, and any other inlinable name
    inlined = {name for name in system.equations if inlinable(name) and (
        atom_label(name) is None or inlinable(system.equations[name][0].member))}
    # an inlined name is printed where a written equation reaches it; going up
    # from one that none reaches ends on a cycle, written from its entry name
    # (a name that is its own only member is written as itself)
    reached: Set[SetName] = set()
    for name in sorted(system.equations, key=lambda n: n in inlined):
        if name not in reached:
            chain: Set[SetName] = set()
            while name in inlined and name not in chain:
                chain.add(name)
                name = referrer[name]
            inlined.discard(name)
            stack = [name]
            while stack:
                for _, member in system.equations[stack.pop()]:
                    if member in inlined and member not in reached:
                        reached.add(member)
                        stack.append(member)

    def write_eqn(name: SetName, expr: FlatExpr) -> str:
        """The <set:eqn> element of name.  An inlined member is printed in
        place unless it is open already, on a cycle through name."""
        head = '<set:eqn set:id="%s"' % _escape_attribute(name.simple)
        if not expr:
            return head + " />"
        out = [head + ">"]
        expanding = {name}  # the names of the open elements
        stack = [(name, "set:eqn", iter(expr))]
        while stack:
            opened, tag, elements = stack[-1]
            for label, member in elements:
                if member in inlined and member not in expanding:
                    atom = atom_label(member)
                    if atom is not None:
                        out.append("<%s>%s</%s>" % (label, _escape_text(atom), label))
                    elif not system.equations[member]:
                        out.append("<%s />" % label)
                    else:
                        out.append("<%s>" % label)
                        expanding.add(member)
                        stack.append((member, label, iter(system.equations[member])))
                        break
                    continue
                attribute = ('set:ref="%s"' % _escape_attribute(member.simple)
                             if member.url == target_url
                             else 'set:href="%s"' % _escape_attribute(member.full))
                out.append("<%s %s />" % (label, attribute))
            else:
                stack.pop()
                expanding.discard(opened)
                out.append("</%s>" % tag)
        return "".join(out)

    body = "".join(write_eqn(name, expr) for name, expr in system.equations.items()
                   if name not in inlined)
    root = '<set:eqns xmlns:set="%s"' % _escape_attribute(SET_NS)
    return '<?xml version="1.0"?>\n' + (root + ">" + body + "</set:eqns>" if body
                                         else root + " />")


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(text: str) -> str:
    """An attribute value escaped as ElementTree escapes it.  (The escape of
    `xml.sax.saxutils` would do, but importing it imports `urllib.request`.)"""
    return (_escape_text(text).replace('"', "&quot;").replace("\r", "&#13;")
            .replace("\n", "&#10;").replace("\t", "&#09;"))
