import random
import xml.etree.ElementTree as ET

import pytest

from hypersetdb.bisim import naive_bisimulation, naive_equal
from hypersetdb.names import Element, EquationSystem, SetName
from hypersetdb.xmlwdb import (
    SET_NS, XmlWdbDocument, XmlWdbError, from_equations, load_equations, to_equations,
    validate,
)

from conftest import bibdb_f1_text, bibdb_f2_text, random_closed_system

F1 = "http://example.org/BibDB-f1.xml"
F2 = "http://example.org/BibDB-f2.xml"


# ---------------------------------------------------------------------------
# An independent oracle: hand-apply the elimination rules in one recursive
# pass, producing (label, nested) entries compared against the shipped path.
# ---------------------------------------------------------------------------

def rules_oracle(text: str, url: str):
    """Returns {simple-name: nested-entry-list}; entries are
    (label, 'ref', SetName) or (label, 'bracket', sub-entries)."""
    root = ET.fromstring(text)
    q = lambda local: "{%s}%s" % (SET_NS, local)

    def element_entries(elem):
        out = []
        ref = elem.attrib.get(q("ref"))
        href = elem.attrib.get(q("href"))
        tag = elem.tag.rpartition("}")[2]
        inner = []
        for key, value in elem.attrib.items():
            if key in (q("ref"), q("href")):
                continue
            inner.append((key.rpartition("}")[2], "bracket",
                          [(tok, "bracket", []) for tok in value.split()]))
        for tok in (elem.text or "").split():
            inner.append((tok, "bracket", []))
        for child in elem:
            inner.extend(element_entries(child))
            for tok in (child.tail or "").split():
                inner.append((tok, "bracket", []))
        if ref is None and href is None:
            return [(tag, "bracket", inner)]
        out = []
        if ref is not None:
            out.append((tag, "ref", SetName(url, ref)))
        if href is not None:
            target_url, _, simple = href.rpartition("#")
            out.append((tag, "ref", SetName(target_url, simple)))
        if inner:
            out.append((tag, "bracket", inner))
        return out

    result = {}
    for eqn in root:
        entries = []
        for tok in (eqn.text or "").split():
            entries.append((tok, "bracket", []))
        for child in eqn:
            entries.extend(element_entries(child))
            for tok in (child.tail or "").split():
                entries.append((tok, "bracket", []))
        result[eqn.attrib[q("id")]] = entries
    return result


def nested_view(system: EquationSystem, url: str):
    """Re-nest a flattened document system for comparison with the oracle:
    generated names expand in place, original references stay references."""

    def entry(element: Element):
        if element.member in system.generated:
            return (element.label, "bracket",
                    [entry(e) for e in system.equations[element.member]])
        return (element.label, "ref", element.member)

    return {name.simple: [entry(e) for e in system.equations[name]]
            for name in system.equations
            if name.url == url and name not in system.generated}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_appendix_files_are_valid():
    for text in (bibdb_f1_text(F1, F2), bibdb_f2_text(F1, F2)):
        doc = XmlWdbDocument.parse(text, F1)
        assert validate(doc) == []


def test_duplicate_id_is_a_violation():
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="b1"/><set:eqn set:id="b1"/>
    </set:eqns>""" % SET_NS
    doc = XmlWdbDocument.parse(text, F1)
    assert any(v.code == "duplicate-id" for v in validate(doc))


def test_dangling_ref_is_a_violation():
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="a"><x set:ref="nope"/></set:eqn>
    </set:eqns>""" % SET_NS
    doc = XmlWdbDocument.parse(text, F1)
    assert any(v.code == "dangling-ref" for v in validate(doc))


def test_href_to_the_session_url_is_refused():
    """A document may not name sets that a query session generates."""
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="a"><x set:href="local://session#res"/></set:eqn>
    </set:eqns>""" % SET_NS
    doc = XmlWdbDocument.parse(text, F1)
    assert [v.code for v in validate(doc)] == ["bad-href"]
    with pytest.raises(XmlWdbError, match="local://session#res"):
        load_equations(text, F1)


def test_deep_validate_checks_href_targets():
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="a"><x set:href="%s#missing"/></set:eqn>
    </set:eqns>""" % (SET_NS, F2)
    doc = XmlWdbDocument.parse(text, F1)
    assert validate(doc) == []
    fetcher = lambda url: bibdb_f2_text(F1, F2)
    assert any(v.code == "dangling-href"
               for v in validate(doc, deep=True, fetcher=fetcher))
    # a target document that defines no names defines the target neither
    empty = lambda url: '<set:eqns xmlns:set="%s"/>' % SET_NS
    assert [v.code for v in validate(doc, deep=True, fetcher=empty)] == ["dangling-href"]

    def unreachable(url):
        raise OSError("unreachable")

    assert [v.code for v in validate(doc, deep=True, fetcher=unreachable)] == ["href-fetch"]


# ---------------------------------------------------------------------------
# Rules 1-5
# ---------------------------------------------------------------------------

def test_family_file_translates_to_almost_flat_system():
    text = """<?xml version="1.0"?>
    <set:eqns xmlns:set="%s">
      <set:eqn set:id="bob">
        <name>Bob</name>
        <wife set:ref="alice" />
      </set:eqn>
      <set:eqn set:id="alice">
        <name>Alice</name>
        <husband set:ref="bob" />
        <pet><name>Sam</name><species>cat</species></pet>
      </set:eqn>
    </set:eqns>""" % SET_NS
    url = "http://example.org/family.xml"
    system = load_equations(text, url)
    bob = SetName(url, "bob")
    labels = [el.label for el in system.equations[bob]]
    assert labels == ["name", "wife"]
    name_member = system.equations[bob][0].member
    assert [el.label for el in system.equations[name_member]] == ["Bob"]
    empty = system.equations[name_member][0].member
    assert system.equations[empty] == []
    assert system.equations[bob][1].member == SetName(url, "alice")


def test_attribute_and_text_elimination_matches_hand_application():
    # <tag attr="v">x</tag> must become tag:{attr:{v:{}}, x:{}}
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="a"><tag attr="v">x</tag></set:eqn>
    </set:eqns>""" % SET_NS
    url = "http://example.org/attr.xml"
    system = load_equations(text, url)
    assert nested_view(system, url) == rules_oracle(text, url)
    # and concretely:
    a = system.equations[SetName(url, "a")]
    assert [el.label for el in a] == ["tag"]
    inner = system.equations[a[0].member]
    assert sorted(el.label for el in inner) == ["attr", "x"]


def test_href_reference_becomes_full_name_element():
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="emma"><friend set:href="%s#mark"/></set:eqn>
    </set:eqns>""" % (SET_NS, "http://example.org/family2.xml")
    url = "http://example.org/family1.xml"
    system = load_equations(text, url)
    emma = system.equations[SetName(url, "emma")]
    assert emma == [Element("friend", SetName("http://example.org/family2.xml", "mark"))]


def test_rule4_empty_ref_content_adds_no_empty_bracket():
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="a"><tag set:ref="s"/></set:eqn>
      <set:eqn set:id="s"/>
    </set:eqns>""" % SET_NS
    url = "http://example.org/r4.xml"
    system = load_equations(text, url)
    assert system.equations[SetName(url, "a")] == [Element("tag", SetName(url, "s"))]


def test_rule4_ref_with_content_keeps_both_elements():
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="a"><tag set:ref="s">word</tag></set:eqn>
      <set:eqn set:id="s"/>
    </set:eqns>""" % SET_NS
    url = "http://example.org/r4b.xml"
    system = load_equations(text, url)
    a = system.equations[SetName(url, "a")]
    assert a[0] == Element("tag", SetName(url, "s"))
    assert a[1].label == "tag"
    assert [el.label for el in system.equations[a[1].member]] == ["word"]


def test_whitespace_only_text_is_ignored():
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="a">
        <tag> </tag>
      </set:eqn>
    </set:eqns>""" % SET_NS
    url = "http://example.org/ws.xml"
    system = load_equations(text, url)
    a = system.equations[SetName(url, "a")]
    assert system.equations[a[0].member] == []


def random_document(rng: random.Random) -> str:
    """A valid document: elements with multi-token attributes, text, tails,
    set:ref and set:href (with and without content), over ids that include
    names of the form x-eN."""
    ids = rng.sample(["a", "b", "a-e1", "a-e3", "b-e2"], rng.randint(1, 4))
    words = ["w", "two words", " ", "x y z"]

    def text() -> str:
        return rng.choice(words) if rng.random() < 0.5 else ""

    def element(depth: int) -> str:
        tag = rng.choice(["p", "tag", "x-1"])
        attrs = ['at%d="%s"' % (i, rng.choice(words)) for i in range(rng.choice([0, 0, 1, 2]))]
        if rng.random() < 0.3:
            attrs.append('set:ref="%s"' % rng.choice(ids))
        if rng.random() < 0.2:
            attrs.append('set:href="mem://other.xml#%s"' % rng.choice(["p1", "q-2"]))
        rng.shuffle(attrs)
        body = text()
        for _ in range(rng.choice([0, 0, 1, 2, 3]) if depth else 0):
            body += element(depth - 1) + text()
        return "<%s %s>%s</%s>" % (tag, " ".join(attrs), body, tag)

    eqns = "".join('<set:eqn set:id="%s">%s%s</set:eqn>'
                   % (simple, text(), "".join(element(rng.randint(0, 3)) + text()
                                              for _ in range(rng.randint(0, 4))))
                   for simple in ids)
    return '<set:eqns xmlns:set="%s">%s</set:eqns>' % (SET_NS, eqns)


def test_rules_oracle_agreement_on_bibdb_and_random_documents():
    for text, url in ((bibdb_f1_text(F1, F2), F1), (bibdb_f2_text(F1, F2), F2)):
        assert nested_view(load_equations(text, url), url) == rules_oracle(text, url)
    rng = random.Random(11)
    url = "mem://random.xml"
    for _ in range(300):
        text = random_document(rng)
        assert validate(XmlWdbDocument.parse(text, url)) == []
        assert nested_view(load_equations(text, url), url) == rules_oracle(text, url)


def test_nested_brackets_are_named_in_preorder_and_defined_in_postorder():
    """Names x-eN count the brackets of x in preorder, skipping the ids
    x-e1 and x-e2 (and names already given) without advancing the count."""
    text = """<set:eqns xmlns:set="%s">
      <set:eqn set:id="x">lead
        <p a="one two" set:ref="x-e1" set:href="mem://o.xml#y">word<q/>tail</p>
        end
      </set:eqn>
      <set:eqn set:id="x-e1"/>
      <set:eqn set:id="x-e2"/>
    </set:eqns>""" % SET_NS
    url = "mem://pin.xml"
    n = lambda simple: SetName(url, simple)
    system = load_equations(text, url)
    assert list(system.equations.items()) == [
        (n("x-e3"), []),
        (n("x-e6"), []),
        (n("x-e7"), []),
        (n("x-e5"), [Element("one", n("x-e6")), Element("two", n("x-e7"))]),
        (n("x-e8"), []),
        (n("x-e9"), []),
        (n("x-e10"), []),
        (n("x-e4"), [Element("a", n("x-e5")), Element("word", n("x-e8")),
                     Element("q", n("x-e9")), Element("tail", n("x-e10"))]),
        (n("x-e11"), []),
        (n("x"), [Element("lead", n("x-e3")), Element("p", n("x-e1")),
                  Element("p", SetName("mem://o.xml", "y")), Element("p", n("x-e4")),
                  Element("end", n("x-e11"))]),
        (n("x-e1"), []),
        (n("x-e2"), []),
    ]
    assert system.generated == {n("x-e%d" % i) for i in range(3, 12)}
    assert system.mentioned == set(system.equations) | {SetName("mem://o.xml", "y")}


def test_a_document_nested_5000_deep_loads():
    depth = 5000
    text = ('<set:eqns xmlns:set="%s"><set:eqn set:id="d">%s%s</set:eqn></set:eqns>'
            % (SET_NS, "<n>t " * depth, "</n>u" * depth))
    url = "mem://deep.xml"
    doc = XmlWdbDocument.parse(text, url)
    assert validate(doc) == []
    system = to_equations(doc)
    # d = {n:{t:{}, n:{...}, u:{}}, u:{}}: one name per element and per token
    assert len(system.equations) == 3 * depth + 1
    name, levels = SetName(url, "d"), 0
    while True:
        nested = [el.member for el in system.equations[name] if el.label == "n"]
        if not nested:
            break
        name, levels = nested[0], levels + 1
    assert levels == depth


# ---------------------------------------------------------------------------
# Inverse transformation and round trips
# ---------------------------------------------------------------------------

def canonical_doc_shape(text: str, url: str):
    """Parse a document into a comparable structure: per id, a multiset of
    recursively rendered children, attribute order ignored."""
    root = ET.fromstring(text)
    q = lambda local: "{%s}%s" % (SET_NS, local)

    def render(elem):
        children = sorted(render(c) for c in elem)
        return (elem.tag.rpartition("}")[2],
                tuple(sorted((k.rpartition("}")[2], v) for k, v in elem.attrib.items()
                             if k != q("id"))),
                tuple((elem.text or "").split()),
                tuple(children))

    return {eqn.attrib[q("id")]: tuple(sorted(render(c) for c in eqn))
            for eqn in root}


def test_bibdb_f2_round_trip_matches_appendix_structure():
    original = bibdb_f2_text(F1, F2)
    system = load_equations(original, F2)
    written = from_equations(system, F2)
    assert canonical_doc_shape(written, F2) == canonical_doc_shape(original, F2)


def test_empty_system_writes_bare_root():
    written = from_equations(EquationSystem(), F1)
    root = ET.fromstring(written)
    assert root.tag == "{%s}eqns" % SET_NS
    assert list(root) == []


def test_round_trip_preserves_bisimulation_class_of_every_defined_name():
    rng = random.Random(7)
    for trial in range(100):
        url = "mem://trial%d.xml" % trial
        system = random_closed_system(rng, max_names=12, url=url)
        written = from_equations(system, url)
        reloaded = to_equations(XmlWdbDocument.parse(written, url))
        # nothing was marked generated, so the round trip is literal
        assert reloaded.equations == system.equations


def _aliased(system, suffix):
    """The system with every local name moved to the url plus suffix."""
    out = EquationSystem()
    for name, expr in system.equations.items():
        out.define(SetName(name.url + suffix, name.simple),
                   [Element(l, SetName(m.url + suffix, m.simple)) for l, m in expr])
    return out


def test_written_generated_names_load_back_bisimilar():
    """A written system loads back bisimilar, a cycle of generated names
    that only each other hold included, and a name written under its own id
    keeps its class."""
    url = "mem://written.xml"
    cycle = EquationSystem()
    cycle.define(SetName(url, "a"), [Element("p", SetName(url, "b"))], generated=True)
    cycle.define(SetName(url, "b"), [Element("q", SetName(url, "a"))], generated=True)
    cycle.define(SetName(url, "r"), [Element("x", SetName(url, "e"))])
    cycle.define(SetName(url, "e"), [])
    systems = [cycle]
    rng = random.Random(22)
    for _ in range(200):
        system = random_closed_system(rng, max_names=8, url=url)
        system.generated = {n for n in system.equations if rng.random() < 0.6}
        systems.append(system)
    for system in systems:
        written = from_equations(system, url)
        loaded = load_equations(written, url)
        # every name is written, as a <set:eqn> or nested in one
        assert len(loaded.equations) == len(system.equations), written
        merged = _aliased(system, "?a")
        merged.merge(_aliased(loaded, "?b"))
        blocks = naive_bisimulation(merged)
        before = {blocks[n] for n in merged.equations if n.url == url + "?a"}
        after = {blocks[n] for n in merged.equations if n.url == url + "?b"}
        assert before == after, written
        for name in loaded.equations:
            if name not in loaded.generated:
                assert (blocks[SetName(url + "?a", name.simple)]
                        == blocks[SetName(url + "?b", name.simple)])
    assert '<set:eqn set:id="a">' in from_equations(cycle, url)


def test_a_document_nested_5000_deep_survives_a_round_trip():
    depth = 5000
    url = "mem://deep.xml"
    text = ('<set:eqns xmlns:set="%s"><set:eqn set:id="d">%s%s</set:eqn></set:eqns>'
            % (SET_NS, "<n>t " * depth, "</n>u" * depth))
    system = load_equations(text, url)
    written = from_equations(system, url)
    reloaded = to_equations(XmlWdbDocument.parse(written, url))
    # the generated names fold back into one nested <set:eqn>, and loading
    # that mints the same names again, so the round trip is literal
    assert written.count("<set:eqn ") == 1
    assert reloaded.equations == system.equations
    assert reloaded.generated == system.generated


def test_round_trip_of_loaded_document_is_bisimulation_equivalent(bibdb):
    from hypersetdb.store import FileFetcher
    fetcher = FileFetcher()
    text1 = fetcher(bibdb.f1_url)
    system = load_equations(text1, bibdb.f1_url)
    written = from_equations(system, bibdb.f1_url)
    reloaded = to_equations(XmlWdbDocument.parse(written, bibdb.f1_url))

    # close both systems over the foreign file, under distinct aliases, then
    # compare the class of every original defined name
    text2 = fetcher(bibdb.f2_url)
    foreign = load_equations(text2, bibdb.f2_url)

    merged = EquationSystem()
    merged.merge(foreign)
    for name, expr in system.equations.items():
        merged.define(SetName(name.url + "?a", name.simple),
                      [Element(l, m if m.url != name.url else SetName(m.url + "?a", m.simple))
                       for l, m in expr])
    for name, expr in reloaded.equations.items():
        merged.define(SetName(name.url + "?b", name.simple),
                      [Element(l, m if m.url != name.url else SetName(m.url + "?b", m.simple))
                       for l, m in expr])
    blocks = naive_bisimulation(merged)
    for simple in ("BibDB", "b1", "b2"):
        a = SetName(bibdb.f1_url + "?a", simple)
        b = SetName(bibdb.f1_url + "?b", simple)
        assert blocks[a] == blocks[b]
