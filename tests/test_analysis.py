import pytest

from hypersetdb import grammar as g
from hypersetdb.analysis import (
    AnalysisError, Library, QueryType, analyze, expand_library, ids_search,
)
from hypersetdb.evaluator import predefined_library
from hypersetdb.library import PREDEFINED_DECLARATIONS
from hypersetdb.parser import parse

UNTYPED_BIBDB_QUERY = ("set query collect { pub-type:pub "
                       "where pub-type:pub in BibDB "
                       "and exists 'refers-to':ref in pub . ref=b2 };")

CORRECTED_BIBDB_QUERY = """set query
  let set constant BibDB be http://h/BibDB-f1.xml#BibDB,
      set constant b2 be http://h/BibDB-f1.xml#b2
  in collect { pub-type:pub
      where pub-type:pub in BibDB
      and exists 'refers-to':ref in pub . ref=b2
    }
  endlet;"""


# ---------------------------------------------------------------------------
# Identifier declaration search
# ---------------------------------------------------------------------------

def test_ids_finds_nearest_label_constant():
    result = parse("boolean query let label constant l='Robert' in l='Rob*' endlet;")
    uses = result.identifier_nodes
    assert [u.identifier_text() for u in uses] == ["l"]
    triple = ids_search(result.tree, uses[0])
    assert triple.declared
    assert triple.binder.label == g.FORMULA_WITH_DECLS
    assert triple.declaration.label == g.LABEL_CONSTANT_DECL
    assert triple.kind == "label constant"


def test_ids_null_triple_for_undeclared():
    result = parse(UNTYPED_BIBDB_QUERY)
    by_name = {u.identifier_text(): u for u in result.identifier_nodes}
    assert not ids_search(result.tree, by_name["BibDB"]).declared
    assert ids_search(result.tree, by_name["pub"]).declared  # bound by collect


def test_ids_nearest_binder_for_separate_variable():
    source = ("set query let set constant t = {} in "
              "separate { l:x in t where 'a':x in t } endlet;")
    result = parse(source)
    x_uses = [u for u in result.identifier_nodes if u.identifier_text() == "x"]
    assert len(x_uses) == 1
    triple = ids_search(result.tree, x_uses[0])
    assert triple.binder.label == g.SEPARATE
    assert triple.kind == "set variable"


def test_ids_rightmost_declaration_wins():
    source = ("set query let set constant c = {}, set constant c = { 'a':{} } "
              "in c endlet;")
    result = parse(source)
    use = [u for u in result.identifier_nodes if u.identifier_text() == "c"][0]
    triple = ids_search(result.tree, use)
    decls = [n for n in result.tree.walk() if n.label == g.SET_CONSTANT_DECL]
    assert triple.declaration is decls[1]


def test_ids_inside_declaration_sees_only_earlier_ones():
    source = ("set query let set constant a = {}, "
              "set constant b = a in b endlet;")
    result = parse(source)
    a_use = [u for u in result.identifier_nodes if u.identifier_text() == "a"][0]
    assert ids_search(result.tree, a_use).declared

    # the same name declared later is invisible
    bad = "set query let set constant b = a, set constant a = {} in b endlet;"
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse(bad))
    assert any(item.name == "a" for item in excinfo.value.items)


# ---------------------------------------------------------------------------
# Full analysis
# ---------------------------------------------------------------------------

def test_untyped_query_reports_both_undeclared_names():
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse(UNTYPED_BIBDB_QUERY))
    names = [item.name for item in excinfo.value.items]
    assert names == ["BibDB", "b2"]
    positions = [item.position for item in excinfo.value.items]
    assert UNTYPED_BIBDB_QUERY[positions[0]:positions[0] + 5] == "BibDB"
    assert UNTYPED_BIBDB_QUERY[positions[1]:positions[1] + 2] == "b2"


def test_corrected_query_is_well_typed():
    tree = analyze(parse(CORRECTED_BIBDB_QUERY))
    collect = [n for n in tree.walk() if n.label == g.COLLECT]
    assert len(collect) == 1
    # BibDB occurrences were relabelled as set constants
    constants = [n for n in tree.walk() if n.label == g.SET_CONSTANT]
    assert {c.identifier_text() for c in constants} == {"BibDB", "b2"}


def test_label_equality_relabelling():
    source = ("boolean query let label constant l='a', label constant m='b' "
              "in l=m endlet;")
    tree = analyze(parse(source))
    equality = tree.children[0].children[2].children[3]
    assert equality.label == g.LABEL_EQUALITY


def test_label_set_equality_mismatch_is_rejected():
    source = ("boolean query let label constant l='a', set constant m={} "
              "in l=m endlet;")
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse(source))
    assert "typed" in str(excinfo.value) or "syntax" in str(excinfo.value)


def test_set_equality_relabelling():
    source = ("boolean query let set constant a={}, set constant b={} "
              "in a=b endlet;")
    tree = analyze(parse(source))
    equality = tree.children[0].children[2].children[3]
    assert equality.label == g.SET_EQUALITY


def test_scr_preserves_tree_shape():
    source = ("boolean query let label constant l='a', label constant m='b' "
              "in l=m endlet;")
    parsed = parse(source)

    def shape(node):
        return tuple(shape(c) for c in node.children)

    before = shape(parsed.tree)
    analyze(parsed)
    assert shape(parsed.tree) == before


def test_query_call_arity_checked():
    source = ("set query let set query f (set x,set y) be {} "
              "in call f({}) endlet;")
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse(source))
    assert "parameter" in str(excinfo.value)


def test_query_call_parameter_kind_checked():
    source = ("set query let label constant l = 'a', "
              "set query f (set x) be {} in call f(l) endlet;")
    with pytest.raises(AnalysisError):
        analyze(parse(source))


def test_boolean_call_in_term_position_is_rejected():
    source = ("set query let boolean query f (set x) be true "
              "in call f({}) endlet;")
    with pytest.raises(AnalysisError):
        analyze(parse(source))


# -- step 5: boundedness ---------------------------------------------------------

def test_free_variable_in_constant_definition_rejected():
    source = "set query let set constant c = x in c endlet;"
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse(source))
    assert any(item.name == "x" for item in excinfo.value.items)


def test_bound_variable_in_bounding_term_rejected():
    source = "boolean query forall l:x in x . true;"
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse(source))
    assert any(item.name == "x" for item in excinfo.value.items)


def test_recursion_variable_free_in_bounding_term_rejected():
    source = "set query recursion p { l:x in p where true };"
    with pytest.raises(AnalysisError):
        analyze(parse(source))


def test_query_body_variables_must_be_parameters():
    good = "set query let set query f (set x) be { 'l':x } in call f({}) endlet;"
    analyze(parse(good))
    bad = "set query let set query f (set x) be { 'l':y } in call f({}) endlet;"
    with pytest.raises(AnalysisError):
        analyze(parse(bad))


def test_recursive_query_call_rejected():
    source = ("set query let set query f (set x) be call f(x) "
              "in call f({}) endlet;")
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse(source))
    assert any("recursive" in item.message for item in excinfo.value.items)


# -- library wrapping -------------------------------------------------------------

def test_expand_library_wraps_declarations():
    wrapped = expand_library("set query call Pair({}, {});",
                             ["set query Pair (set x,set y) be { 'fst':x, 'snd':y }"])
    assert wrapped.startswith("set query let set query Pair")
    assert wrapped.rstrip().endswith("endlet;")
    analyze(parse(wrapped))


def library_add(sources):
    return "library add " + ",\n".join(sources) + ";"


def test_predefined_library_is_well_typed():
    analyze(parse(library_add(PREDEFINED_DECLARATIONS)))
    library = predefined_library()
    assert library.sources == PREDEFINED_DECLARATIONS
    assert len(library.declarations) == len(PREDEFINED_DECLARATIONS)


def test_later_library_declaration_shadows_earlier():
    library = ["set constant some_book = http://h/f.xml#b1",
               "set constant some_book = http://h/f.xml#b2"]
    wrapped = expand_library("set query some_book;", library)
    tree = analyze(parse(wrapped))
    decls = [n for n in tree.walk() if n.label == g.SET_CONSTANT_DECL]
    use = [n for n in tree.walk()
           if n.label == g.SET_CONSTANT and n.parent.label not in
           (g.SET_CONSTANT_DECL,)][-1]
    triple = ids_search(tree, use)
    assert triple.declaration is decls[1]


def test_empty_library_call_is_undeclared():
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse("set query call Pair({}, {});"))
    assert any(item.name == "Pair" for item in excinfo.value.items)


# -- queries checked against a compiled library --------------------------------

def compiled(sources):
    tree = analyze(parse(library_add(sources)))
    return Library().extended(tree.children[1], sources)


def test_compiled_library_scope_rightmost_declaration_wins():
    library = compiled(["set constant some_book = http://h/f.xml#b1",
                        "set constant some_book = http://h/f.xml#b2"])
    result = parse("set query some_book;")
    tree = analyze(result, library)
    use = result.identifier_nodes[0]
    assert use.label == g.SET_CONSTANT
    assert ids_search(tree, use, library).declaration is library.declarations[1]


def test_compiled_library_declaration_sees_only_earlier_ones():
    with pytest.raises(AnalysisError) as excinfo:
        compiled(["set query A (set x) be call B(x)", "set query B (set x) be x"])
    assert any(item.name == "B" for item in excinfo.value.items)
    compiled(["set query B (set x) be x", "set query A (set x) be call B(x)"])


def test_query_declaration_shadows_library_name():
    library = compiled(PREDEFINED_DECLARATIONS)
    result = parse("set query let set constant Pair = {} in Pair endlet;")
    tree = analyze(result, library)
    use = result.identifier_nodes[-1]
    triple = ids_search(tree, use, library)
    assert use.label == g.SET_CONSTANT
    assert triple.declaration.label == g.SET_CONSTANT_DECL
    assert triple.declaration not in library.declarations


def test_library_names_resolve_without_splicing():
    library = compiled(PREDEFINED_DECLARATIONS)
    result = parse("set query call Pair({}, {});")
    analyze(result, library)
    assert result.identifier_nodes[0].label == g.SET_QUERY_NAME
    with pytest.raises(AnalysisError) as excinfo:
        analyze(parse("set query call Pair({});"), library)
    assert "expects 2 parameter(s), got 1" in str(excinfo.value)
    assert excinfo.value.items[0].position == len("set query ")


def test_library_add_lists_each_declaration_once(monkeypatch):
    """A chain f0 ... f(n-1), each fi calling f(i-1), is analyzed with each
    declaration's kind worked out a bounded number of times, not once per
    identifier use."""
    from hypersetdb import analysis
    calls = []
    kind = analysis._declaration_kind
    monkeypatch.setattr(analysis, "_declaration_kind",
                        lambda decl: calls.append(decl) or kind(decl))
    n = 400
    sources = ["set query f0 (set x) be { 'a':x }"] + [
        "set query f%d (set x) be call f%d(x)" % (i, i - 1) for i in range(1, n)]
    tree = analyze(parse(library_add(sources)))
    assert len(Library().extended(tree.children[1], sources).declarations) == n
    assert len(calls) <= 4 * n, len(calls)
