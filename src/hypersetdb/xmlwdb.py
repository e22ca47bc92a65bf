"""XML-WDB file format: validation, transformation to flat set equations
(attribute / atomic-data / tag elimination rules) and the inverse writer.

An XML-WDB document has root <set:eqns> holding <set:eqn set:id="..."> children
whose content is arbitrary XML.  Local references use set:ref="simple-name",
cross-document ones set:href="url#simple-name".  Element order and repetition
are irrelevant to the set semantics.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from .names import (
    Bracket, EquationSystem, NestedExpr, SetName, WdbError,
    flatten, is_identifier, parse_set_name,
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


def _q(local: str) -> str:
    return "{%s}%s" % (SET_NS, local)


@dataclass
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return "%s: %s" % (self.code, self.message)


def validate(doc: XmlWdbDocument, deep: bool = False,
             fetcher: Optional[Callable[[str], str]] = None) -> List[Violation]:
    """Check the XML-WDB structural rules; returns all violations found.

    With deep=True every set:href target document is fetched and checked to
    define the referenced simple name (requires a fetcher).
    """
    eqns_tag, eqn_tag = _q("eqns"), _q("eqn")
    id_attr, ref_attr, href_attr = _q("id"), _q("ref"), _q("href")
    out: List[Violation] = []

    root = doc.root
    if root.tag != eqns_tag:
        out.append(Violation("bad-root", "root element is %s, expected set:eqns" % root.tag))
        return out
    for attr in root.attrib:
        # xsi:* schema hints appear on the published example files; tolerated.
        if not attr.startswith("{%s}" % XSI_NS):
            out.append(Violation("root-attribute", "set:eqns carries attribute %s" % attr))

    ids: Set[str] = set()
    for child in root:
        if child.tag != eqn_tag:
            out.append(Violation("bad-eqn", "child %s of set:eqns is not set:eqn" % child.tag))
            continue
        eqn_id = child.attrib.get(id_attr)
        if eqn_id is None:
            out.append(Violation("missing-id", "set:eqn without required set:id"))
            continue
        for attr in child.attrib:
            if attr != id_attr:
                out.append(Violation("eqn-attribute", "set:eqn carries attribute %s" % attr))
        if not is_identifier(eqn_id):
            out.append(Violation("bad-id", "set:id %r is not a simple set name" % eqn_id))
        if eqn_id in ids:
            out.append(Violation("duplicate-id", "set:id %r defined twice" % eqn_id))
        ids.add(eqn_id)

    refs: List[str] = []
    hrefs: List[str] = []

    def scan(elem: ET.Element) -> None:
        for sub in elem:
            if sub.tag in (eqns_tag, eqn_tag):
                out.append(Violation("nested-special",
                                     "%s nested inside arbitrary content" % sub.tag))
            if id_attr in sub.attrib:
                out.append(Violation("nested-special", "set:id on arbitrary element"))
            if ref_attr in sub.attrib:
                refs.append(sub.attrib[ref_attr])
            if href_attr in sub.attrib:
                hrefs.append(sub.attrib[href_attr])
            scan(sub)

    for child in root:
        if child.tag == eqn_tag:
            scan(child)

    for ref in refs:
        if ref not in ids:
            out.append(Violation("dangling-ref", "set:ref %r has no local set:id" % ref))
    for href in hrefs:
        if "#" not in href:
            out.append(Violation("bad-href", "set:href %r is not a full set name" % href))
            continue
        try:
            target = parse_set_name(href, base_url=doc.source_url)
        except WdbError:
            out.append(Violation("bad-href", "set:href %r is not a full set name" % href))
            continue
        if target.is_local():
            out.append(Violation("bad-href", "set:href %r names a session-generated set"
                                 % href))

    if deep:
        if fetcher is None:
            raise XmlWdbError("deep validation requires a fetcher")
        checked: Dict[str, Set[str]] = {}
        for href in hrefs:
            if "#" not in href:
                continue
            url, _, simple = href.rpartition("#")
            if url == doc.source_url:
                continue
            if url not in checked:
                try:
                    other = XmlWdbDocument.parse(fetcher(url), url)
                except Exception as exc:
                    out.append(Violation("href-fetch", "cannot fetch %s: %s" % (url, exc)))
                    checked[url] = set()
                    continue
                checked[url] = {e.attrib.get(id_attr, "") for e in other.root}
            if checked[url] and simple not in checked[url]:
                out.append(Violation("dangling-href",
                                     "%s does not define %r" % (url, simple)))
    return out


# ---------------------------------------------------------------------------
# XML -> set equations (attribute, atomic-data and tag elimination)
# ---------------------------------------------------------------------------

def _local_tag(tag: str) -> str:
    return tag.rpartition("}")[2]


def _tokens(text: Optional[str]) -> List[str]:
    return text.split() if text else []


def _element_entries(sub: ET.Element, doc: XmlWdbDocument) -> List[Tuple[str, NestedExpr]]:
    """Transform one XML element into labelled bracket entries.

    Attributes (other than set:ref/set:href) become nested tags, text tokens
    become empty elements, set:ref/set:href become name references; an element
    carrying a reference contributes tag:{content} only if content remains.
    """
    ref = sub.attrib.get(_q("ref"))
    href = sub.attrib.get(_q("href"))
    tag = _local_tag(sub.tag)

    inner = Bracket()
    for key, value in sub.attrib.items():
        if key in (_q("ref"), _q("href")):
            continue
        inner.entries.append(
            (_local_tag(key), Bracket([(tok, Bracket()) for tok in _tokens(value)])))
    inner.entries.extend(_content_entries(sub, doc))

    if ref is None and href is None:
        return [(tag, inner)]
    out: List[Tuple[str, NestedExpr]] = []
    if ref is not None:
        out.append((tag, SetName(doc.source_url, ref)))
    if href is not None:
        out.append((tag, parse_set_name(href, base_url=doc.source_url)))
    if inner.entries:
        out.append((tag, inner))
    return out


def _content_entries(elem: ET.Element, doc: XmlWdbDocument) -> List[Tuple[str, NestedExpr]]:
    entries: List[Tuple[str, NestedExpr]] = []
    for tok in _tokens(elem.text):
        entries.append((tok, Bracket()))
    for sub in elem:
        entries.extend(_element_entries(sub, doc))
        for tok in _tokens(sub.tail):
            entries.append((tok, Bracket()))
    return entries


def to_equations(doc: XmlWdbDocument) -> EquationSystem:
    """Apply the elimination rules and flatten; simple ids become full names
    against the document URL."""
    problems = validate(doc)
    if problems:
        raise XmlWdbError("invalid XML-WDB document %s: %s"
                          % (doc.source_url, "; ".join(str(p) for p in problems)))
    nested: Dict[SetName, NestedExpr] = {}
    for eqn in doc.root:
        simple = eqn.attrib[_q("id")]
        nested[SetName(doc.source_url, simple)] = Bracket(_content_entries(eqn, doc))
    return flatten(nested)


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
    names become nested elements.
    """
    for name in system.equations:
        if name.url != target_url:
            raise XmlWdbError("equation %s does not belong to %s" % (name.full, target_url))
        if not is_identifier(name.simple):
            raise XmlWdbError("name not serializable as identifier: %r" % name.simple)

    ref_count: Dict[SetName, int] = {}
    for expr in system.equations.values():
        for el in expr:
            ref_count[el.member] = ref_count.get(el.member, 0) + 1

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

    inlined: Set[SetName] = set()
    expanding: Set[SetName] = set()

    def emit_element(parent: ET.Element, label: str, member: SetName) -> None:
        if not LABEL_TAG_RE.match(label):
            raise XmlWdbError("label not serializable as a tag: %r" % label)
        if inlinable(member) and member not in expanding:
            atom = atom_label(member)
            if atom is not None:
                inner = system.equations[member][0].member
                inlined.add(member)
                if inlinable(inner):
                    inlined.add(inner)
                    node = ET.SubElement(parent, label)
                    node.text = atom
                    return
                inlined.discard(member)
            else:
                inlined.add(member)
                node = ET.SubElement(parent, label)
                expanding.add(member)
                for el in system.equations[member]:
                    emit_element(node, el.label, el.member)
                expanding.discard(member)
                return
        node = ET.SubElement(parent, label)
        if member.url == target_url:
            node.set("set:ref", member.simple)
        else:
            node.set("set:href", member.full)

    root = ET.Element("set:eqns")
    root.set("xmlns:set", SET_NS)
    eqn_elements: List[Tuple[SetName, ET.Element]] = []
    for name, expr in system.equations.items():
        eqn = ET.Element("set:eqn")
        eqn.set("set:id", name.simple)
        expanding.add(name)
        for el in expr:
            emit_element(eqn, el.label, el.member)
        expanding.discard(name)
        eqn_elements.append((name, eqn))
    for name, eqn in eqn_elements:
        if name not in inlined:
            root.append(eqn)

    return '<?xml version="1.0"?>\n' + ET.tostring(root, encoding="unicode")
