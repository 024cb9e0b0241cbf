"""Binding-model construction: pruning, flattening, tightening, dispatch, collapse."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import PO_DOC, TNS, analyze, cid, schema_of
from slimbind.analyzer import ParticlePath, UsageReport, analyze_corpus
from slimbind.binding import (
    BindingOptions,
    Cardinality,
    FieldKind,
    ValueCategory,
    build_binding_model,
    deserialize_binding_model,
    effective_fields,
    mangle,
    serialize_binding_model,
)
from slimbind.emitter import emit_parser_backend
from slimbind.errors import EmptyModelError, InconsistentUsageError
from slimbind.loader import SchemaSource, load_schema_set
from slimbind.model import QName
from slimbind.simplify import compute_retained_set


def model_for(schema, docs, options=None, **kw):
    usage = analyze(schema, *docs)
    retained = compute_retained_set(schema, usage)
    return build_binding_model(schema, retained, usage,
                               options or BindingOptions(), **kw), usage


def field(model, cls_name, field_name):
    cls = model.class_by_name(cls_name)
    assert cls is not None, f"no class {cls_name}"
    f = cls.field_by_name(field_name)
    assert f is not None, f"no field {cls_name}.{field_name}"
    return f


def test_minimal_empty_type_model():
    schema = schema_of("""
  <xs:element name="e" type="tns:T"/>
  <xs:complexType name="T"><xs:sequence/></xs:complexType>""")
    model, _ = model_for(schema, [f'<e xmlns="{TNS}"/>'])
    assert [c.name for c in model.classes] == ["T"]
    assert model.classes[0].fields == []
    assert len(model.roots) == 1
    assert model.roots[0].target_class == "T"


class TestFlattening:
    SCHEMA = """
  <xs:element name="r" type="tns:D"/>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="b" type="xs:string"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B">
      <xs:sequence><xs:element name="d" type="xs:int"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>"""
    DOC = f'<r xmlns="{TNS}"><b>x</b><d>1</d></r>'

    def test_flattened_fields_in_base_to_derived_order(self):
        schema = schema_of(self.SCHEMA + """
  <xs:element name="rb" type="tns:B"/>""")
        docs = [self.DOC, f'<rb xmlns="{TNS}"><b>y</b></rb>']
        model, _ = model_for(schema, docs)
        d = model.class_by_name("D")
        assert [f.name for f in d.fields] == ["b", "d"]
        assert d.base is None
        b = model.class_by_name("B")
        assert [f.name for f in b.fields] == ["b"]

    def test_unflattened_keeps_base_reference(self):
        schema = schema_of(self.SCHEMA)
        model, _ = model_for(schema, [self.DOC],
                             BindingOptions(flatten_inheritance=False))
        d = model.class_by_name("D")
        assert d.base == "B"
        assert [f.name for f in d.fields] == ["d"]
        b = model.class_by_name("B")  # pulled in as a base even if not instanced
        assert [f.name for f in b.fields] == ["b"]
        assert [f.name for f in effective_fields(model, d)] == ["b", "d"]

    def test_flattening_preserves_field_multiset(self):
        schema = schema_of(self.SCHEMA)
        flat, _ = model_for(schema, [self.DOC])
        unflat, _ = model_for(schema, [self.DOC],
                              BindingOptions(flatten_inheritance=False))
        d_flat = flat.class_by_name("D")
        d_unflat = unflat.class_by_name("D")
        key = lambda fs: sorted((f.xml_name, f.kind.value) for f in fs)
        assert key(d_flat.fields) == key(effective_fields(unflat, d_unflat))

    def test_abstract_base_never_a_class_when_flattening(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:D"/>
  <xs:complexType name="B" abstract="true">
    <xs:sequence><xs:element name="b" type="xs:string"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B"/></xs:complexContent>
  </xs:complexType>""")
        doc = f'<r xmlns="{TNS}"><b>x</b></r>'
        model, _ = model_for(schema, [doc])
        assert model.class_by_name("B") is None
        assert [f.name for f in model.class_by_name("D").fields] == ["b"]
        no_flat, _ = model_for(schema, [doc],
                               BindingOptions(flatten_inheritance=False))
        assert no_flat.class_by_name("B").is_abstract


class TestTightening:
    SCHEMA = """
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="once" type="xs:int" minOccurs="0" maxOccurs="unbounded"/>
      <xs:element name="many" type="xs:int" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>"""

    def docs(self):
        return [f'<r xmlns="{TNS}"><once>1</once><many>1</many><many>2</many></r>']

    def test_single_run_becomes_scalar_optional(self):
        schema = schema_of(self.SCHEMA)
        model, _ = model_for(schema, self.docs())
        assert field(model, "R", "once").cardinality is Cardinality.SCALAR_OPTIONAL
        assert field(model, "R", "many").cardinality is Cardinality.LIST

    def test_tighten_off_keeps_lists(self):
        schema = schema_of(self.SCHEMA)
        model, _ = model_for(schema, self.docs(),
                             BindingOptions(tighten_occurrences=False))
        assert field(model, "R", "once").cardinality is Cardinality.LIST

    def test_tightening_never_widens(self):
        schema = schema_of(self.SCHEMA)
        tight, _ = model_for(schema, self.docs())
        loose, _ = model_for(schema, self.docs(),
                             BindingOptions(tighten_occurrences=False))
        for cls in tight.classes:
            for f in cls.fields:
                if f.cardinality is Cardinality.LIST:
                    other = loose.class_by_name(cls.name).field_by_name(f.name)
                    assert other.cardinality is Cardinality.LIST

    def test_required_scalar_keeps_requiredness(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="x" type="xs:int" maxOccurs="3"/></xs:sequence>
  </xs:complexType>""")
        model, _ = model_for(schema, [f'<r xmlns="{TNS}"><x>1</x></r>'])
        assert field(model, "R", "x").cardinality is Cardinality.SCALAR_REQUIRED


class TestPruning:
    def test_unused_fields_and_classes_dropped(self, po_schema):
        model, _ = model_for(po_schema, [PO_DOC])
        assert model.class_by_name("UnusedType") is None
        assert model.class_by_name("AddressType") is None  # never instanced
        po = model.class_by_name("POType")
        assert po.field_by_name("shipTo") is None
        assert po.field_by_name("note") is not None

    def test_prune_off_keeps_everything(self, po_schema):
        usage = analyze(po_schema, PO_DOC)
        model = build_binding_model(po_schema, set(po_schema.components), usage,
                                    BindingOptions(prune_unused=False))
        assert model.class_by_name("UnusedType") is not None
        po = model.class_by_name("POType")
        assert po.field_by_name("shipTo") is not None
        # Roots cover all retained concrete global elements.
        assert {str(r.qname) for r in model.roots} == \
            {f"{{{TNS}}}po", f"{{{TNS}}}memo"}


class TestDispatch:
    SCHEMA = """
  <xs:complexType name="HT">
    <xs:sequence><xs:element name="hx" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:element name="h" type="tns:HT"/>
  <xs:element name="m1" type="tns:HT" substitutionGroup="tns:h"/>
  <xs:element name="m2" type="tns:HT" substitutionGroup="tns:h"/>
  <xs:element name="m3" type="tns:HT" substitutionGroup="tns:m2"/>
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element ref="tns:h" maxOccurs="unbounded"/></xs:sequence>
  </xs:complexType>"""

    def test_bound_tables_equal_observed_sets(self):
        schema = schema_of(self.SCHEMA)
        docs = [f'<r xmlns="{TNS}"><m1/></r>']
        model, usage = model_for(schema, docs)
        f = field(model, "R", "h")
        names = [e.qname.local for e in f.dispatch]
        assert names == ["m1"]

    def test_unbound_tables_equal_schema_possible_sets(self):
        schema = schema_of(self.SCHEMA)
        docs = [f'<r xmlns="{TNS}"><m1/></r>']
        usage = analyze(schema, *docs)
        model = build_binding_model(
            schema, set(schema.components), usage,
            BindingOptions(bound_substitutions=False, prune_unused=False))
        f = field(model, "R", "h")
        names = sorted(e.qname.local for e in f.dispatch)
        assert names == ["h", "m1", "m2", "m3"]  # two-level chain included

    def test_unbound_tables_restricted_to_retained(self):
        schema = schema_of(self.SCHEMA)
        docs = [f'<r xmlns="{TNS}"><m1/></r>']
        model, _ = model_for(schema, docs,
                             BindingOptions(bound_substitutions=False))
        f = field(model, "R", "h")
        # m2/m3 were never used, so the retained subset excludes them.
        assert sorted(e.qname.local for e in f.dispatch) == ["h", "m1"]

    def test_head_included_when_itself_observed(self):
        schema = schema_of(self.SCHEMA)
        docs = [f'<r xmlns="{TNS}"><h/><m2/></r>']
        model, _ = model_for(schema, docs)
        f = field(model, "R", "h")
        assert sorted(e.qname.local for e in f.dispatch) == ["h", "m2"]

    def test_xsi_type_dispatch_observed(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="v" type="tns:B"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="x" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B">
      <xs:sequence><xs:element name="y" type="xs:int"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>""")
        doc = (f'<r xmlns="{TNS}" xmlns:tns="{TNS}" '
               'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
               '<v xsi:type="tns:D"><x>1</x><y>2</y></v></r>')
        model, _ = model_for(schema, [doc])
        f = field(model, "R", "v")
        xsi = [e for e in f.dispatch if e.via == "xsi-type"]
        assert [e.qname.local for e in xsi] == ["D"]
        assert xsi[0].target_class == "D"

    def test_wildcard_fillers_bound_and_unbound(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:element name="w1" type="xs:string"/>
  <xs:element name="w2" type="xs:string"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:any processContents="lax" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>""")
        docs = [f'<r xmlns="{TNS}"><w1>a</w1></r>']
        bound, _ = model_for(schema, docs)
        f = field(bound, "R", "any")
        assert [e.qname.local for e in f.dispatch] == ["w1"]
        usage = analyze(schema, *docs)
        unbound = build_binding_model(schema, set(schema.components), usage,
                                      BindingOptions(bound_substitutions=False,
                                                     prune_unused=False))
        f = field(unbound, "R", "any")
        assert {e.qname.local for e in f.dispatch} >= {"r", "w1", "w2"}


class TestCollapse:
    SCHEMA = """
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="wrap" type="tns:W"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="W">
    <xs:sequence><xs:element name="inner" type="tns:I"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="I">
    <xs:sequence>
      <xs:element name="leaf" type="xs:int"/>
      <xs:element name="leaf2" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>"""
    DOC = (f'<r xmlns="{TNS}"><wrap><inner>'
           '<leaf>5</leaf><leaf2>x</leaf2></inner></wrap></r>')

    def test_chain_collapses_to_fixed_point(self):
        schema = schema_of(self.SCHEMA)
        model, _ = model_for(schema, [self.DOC])
        f = field(model, "R", "wrap")
        assert f.target_class == "I"
        assert [q.local for q in f.collapse_chain] == ["inner"]
        assert model.class_by_name("W") is None
        assert {c.name for c in model.collapsed_classes} == {"W"}

    def test_full_chain_collapse_through_two_wrappers(self):
        schema = schema_of(self.SCHEMA.replace(
            '<xs:element name="leaf2" type="xs:string"/>', ""))
        doc = f'<r xmlns="{TNS}"><wrap><inner><leaf>5</leaf></inner></wrap></r>'
        model, _ = model_for(schema, [doc])
        f = field(model, "R", "wrap")
        assert f.target_class is None
        assert f.value is ValueCategory.INTEGER
        assert [q.local for q in f.collapse_chain] == ["inner", "leaf"]
        assert {c.name for c in model.collapsed_classes} == {"W", "I"}
        assert len(model.collapsed_elements) == 2

    def test_class_count_delta_equals_collapsed(self):
        schema = schema_of(self.SCHEMA)
        on, _ = model_for(schema, [self.DOC])
        off, _ = model_for(schema, [self.DOC],
                           BindingOptions(collapse_single_child=False))
        assert len(on.classes) <= len(off.classes)
        assert len(off.classes) - len(on.classes) == len(on.collapsed_elements)

    def test_collapse_to_simple_value(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="wrap" type="tns:W"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="W">
    <xs:sequence><xs:element name="num" type="xs:int"/></xs:sequence>
  </xs:complexType>""")
        doc = f'<r xmlns="{TNS}"><wrap><num>3</num></wrap></r>'
        model, _ = model_for(schema, [doc])
        f = field(model, "R", "wrap")
        assert f.target_class is None
        assert f.value is ValueCategory.INTEGER
        assert [q.local for q in f.collapse_chain] == ["num"]

    def test_multi_use_wrapper_class_kept(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="a" type="tns:W"/>
      <xs:element name="b" type="tns:W" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="W">
    <xs:sequence><xs:element name="k" type="xs:int"/></xs:sequence>
  </xs:complexType>""")
        # A single-child everywhere, b repeats (list) so W must survive.
        doc = (f'<r xmlns="{TNS}"><a><k>1</k></a>'
               '<b><k>2</k></b><b><k>3</k></b></r>')
        model, _ = model_for(schema, [doc])
        assert model.class_by_name("W") is not None
        assert field(model, "R", "b").target_class == "W"

    def test_collapse_off_keeps_wrappers(self):
        schema = schema_of(self.SCHEMA)
        model, _ = model_for(schema, [self.DOC],
                             BindingOptions(collapse_single_child=False))
        assert model.class_by_name("W") is not None
        assert field(model, "R", "wrap").collapse_chain == ()


class TestWildcardElementPrecedence:
    SCHEMA = """
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="HT"><xs:sequence/></xs:complexType>
  <xs:element name="h" type="tns:HT" abstract="true"/>
  <xs:element name="m" type="tns:HT" substitutionGroup="tns:h"/>
  <xs:element name="other" type="xs:string"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:any processContents="lax" minOccurs="0" maxOccurs="2"/>
      <xs:element ref="tns:h"/>
    </xs:sequence>
  </xs:complexType>"""

    def test_element_field_claims_shared_names(self, tmp_path):
        """A wildcard never shadows a sibling element field's names.

        The positional matcher can route the same name to the wildcard and
        to the head particle; name-driven parsers must prefer the element
        field or required fields would go unfilled.
        """
        schema = schema_of(self.SCHEMA)
        doc = f'<r xmlns="{TNS}"><other>x</other><m/><m/></r>'
        model, _ = model_for(schema, [doc])
        r = model.class_by_name("R")
        wildcard = next(f for f in r.fields if f.is_wildcard)
        head = next(f for f in r.fields if f.name == "h")
        assert {e.qname.local for e in head.dispatch} == {"m"}
        assert {e.qname.local for e in wildcard.dispatch} == {"other"}

    def test_generated_parse_fills_required_head(self, tmp_path):
        from genutil import assert_equivalent, build_and_import
        schema = schema_of(self.SCHEMA)
        docs = [f'<r xmlns="{TNS}"><other>x</other><m/><m/></r>']
        model, module, _, _ = build_and_import(schema, docs, tmp_path)
        assert_equivalent(model, module, docs)
        obj, warnings = module.parse_document(docs[0])
        assert obj.h is not None
        assert warnings == []


class TestSyntheticCorpus:
    def test_forces_tighten_and_bound_off(self):
        opts = BindingOptions(corpus_is_synthetic=True).resolved()
        assert not opts.tighten_occurrences
        assert not opts.bound_substitutions
        assert opts.flatten_inheritance and opts.collapse_single_child

    def test_synthetic_equals_safe_baseline(self, po_schema):
        """Synthetic mode only disables evidence-based optimizations."""
        synth, _ = model_for(po_schema, [PO_DOC],
                             BindingOptions(corpus_is_synthetic=True))
        baseline, _ = model_for(po_schema, [PO_DOC],
                                BindingOptions(tighten_occurrences=False,
                                               bound_substitutions=False))
        s = serialize_binding_model(synth)
        b = serialize_binding_model(baseline)
        assert s.replace('"corpusIsSynthetic": true',
                         '"corpusIsSynthetic": false') == b


class TestSerialization:
    def test_round_trip_identity(self, po_schema):
        ignore = ((QName(TNS, "po"), QName(TNS, "note")),)
        for options in (BindingOptions(), BindingOptions(
                flatten_inheritance=False, ignore_paths=ignore)):
            model, _ = model_for(po_schema, [PO_DOC], options)
            text = serialize_binding_model(model)
            clone = deserialize_binding_model(text)
            assert serialize_binding_model(clone) == text
            assert clone == model

    def test_equal_models_byte_identical(self, po_schema):
        m1, _ = model_for(po_schema, [PO_DOC])
        m2, _ = model_for(po_schema, [PO_DOC])
        assert serialize_binding_model(m1) == serialize_binding_model(m2)

    def test_ir_version_present(self, po_schema):
        model, _ = model_for(po_schema, [PO_DOC])
        data = __import__("json").loads(serialize_binding_model(model))
        assert data["irVersion"] == 2


class TestErrors:
    def test_inconsistent_usage(self, po_schema):
        usage = analyze(po_schema, PO_DOC)
        with pytest.raises(InconsistentUsageError):
            build_binding_model(po_schema, {cid("element", "po")}, usage,
                                BindingOptions())

    def test_empty_model(self, po_schema):
        with pytest.raises(EmptyModelError):
            build_binding_model(po_schema, set(), UsageReport(), BindingOptions())


class TestIgnorePaths:
    def test_field_marked_ignored(self, po_schema):
        opts = BindingOptions(ignore_paths=(
            (QName(TNS, "po"), QName(TNS, "item")),))
        model, _ = model_for(po_schema, [PO_DOC], opts)
        assert field(model, "POType", "item").ignored
        assert not field(model, "POType", "note").ignored

    def test_nested_path(self, po_schema):
        opts = BindingOptions(ignore_paths=(
            (QName(TNS, "po"), QName(TNS, "item"), QName(TNS, "price")),))
        model, _ = model_for(po_schema, [PO_DOC], opts)
        assert field(model, "ItemType", "price").ignored
        assert not field(model, "POType", "item").ignored


class TestMangling:
    def test_rules(self):
        used = set()
        assert mangle("class", used) == "class_"
        assert mangle("2fast", used) == "x2fast"
        assert mangle("a-b.c", used) == "a_b_c"
        assert mangle("a_b_c", used) == "a_b_c_2"
        assert mangle("a_b_c", used) == "a_b_c_3"

    def test_field_collisions_within_class(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="x" type="xs:int"/></xs:sequence>
    <xs:attribute name="x" type="xs:string"/>
  </xs:complexType>""")
        model, _ = model_for(schema, [f'<r xmlns="{TNS}" x="a"><x>1</x></r>'])
        names = [f.name for f in model.class_by_name("R").fields]
        assert names == ["x", "x_2"]


@st.composite
def synth_model(draw):
    """A binding model of a synthetic schema and corpus, under drawn options."""
    from synth import generate_case

    _g, xsd, docs = generate_case(draw(st.integers(0, 10_000)))
    schema = load_schema_set([SchemaSource("mem://m.xsd", raw_text=xsd)])
    usage = analyze_corpus(schema, [(f"d{i}.xml", d) for i, d in enumerate(docs)])
    options = BindingOptions(flatten_inheritance=draw(st.booleans()),
                             collapse_single_child=draw(st.booleans()),
                             bound_substitutions=draw(st.booleans()))
    return build_binding_model(schema, compute_retained_set(schema, usage), usage, options)


def collapse_chain_model():
    """A model whose rows hold two collapse chains: to a class, and to a value."""
    schema = schema_of(TestCollapse.SCHEMA.replace(
        '<xs:element name="wrap" type="tns:W"/>',
        '<xs:element name="wrap" type="tns:W"/><xs:element name="box" type="tns:W2"/>') + """
  <xs:complexType name="W2">
    <xs:sequence><xs:element name="mid" type="tns:M"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="M">
    <xs:sequence><xs:element name="num" type="xs:int"/></xs:sequence>
  </xs:complexType>""")
    doc = TestCollapse.DOC.replace("</wrap>", "</wrap><box><mid><num>1</num></mid></box>")
    model = model_for(schema, [doc])[0]
    assert [[q.local for q in f.collapse_chain] for f in model.class_by_name("R").fields] \
        == [["inner"], ["mid", "num"]]
    return model


COLLAPSE_CHAIN_MODEL = collapse_chain_model()


def _tables_by_value(model):
    """Each distinct non-empty dispatch table -> the ids of the tuples holding it."""
    out = {}
    owners = [f for c in (*model.classes, *model.collapsed_classes) for f in c.fields]
    for owner in (*owners, *model.roots):
        if owner.dispatch:
            out.setdefault(owner.dispatch, set()).add(id(owner.dispatch))
    return out


@settings(max_examples=30, deadline=None)
@given(synth_model())
@example(COLLAPSE_CHAIN_MODEL)
def test_round_trip_renders_the_same_package_and_shares_tables(model):
    clone = deserialize_binding_model(serialize_binding_model(model))
    assert emit_parser_backend(clone)[0].content == emit_parser_backend(model)[0].content
    assert all(len(ids) == 1 for ids in _tables_by_value(clone).values())
    assert _tables_by_value(clone).keys() == _tables_by_value(model).keys()


def test_older_ir_version_is_refused(po_schema):
    model, _ = model_for(po_schema, [PO_DOC])
    old = serialize_binding_model(model).replace('"irVersion": 2', '"irVersion": 1')
    with pytest.raises(ValueError, match="irVersion 1.*regenerate"):
        deserialize_binding_model(old)
