"""Retained-set computation and reduced-schema emission."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PO_DOC, TNS, analyze, cid, schema_of
from oracle import brute_retained
from slimbind.analyzer import UsageReport, analyze_corpus
from slimbind.errors import NotClosedError
from slimbind.loader import SchemaSource, load_schema_set
from slimbind.model import XSD_NAMESPACE
from slimbind.simplify import (
    compute_retained_set,
    emit_reduced_schemas,
    namespace_slug,
    reduction_report,
)


def usage_of(*ids):
    report = UsageReport()
    report.used_components = set(ids)
    return report


class TestComputeRetainedSet:
    def test_empty_usage_is_empty(self, po_schema):
        assert compute_retained_set(po_schema, usage_of()) == set()

    def test_base_chain_retained(self):
        schema = schema_of("""
  <xs:element name="e" type="tns:T"/>
  <xs:complexType name="S"><xs:sequence/></xs:complexType>
  <xs:complexType name="T">
    <xs:complexContent><xs:extension base="tns:S"/></xs:complexContent>
  </xs:complexType>""")
        retained = compute_retained_set(schema, usage_of(cid("element", "e")))
        assert {cid("element", "e"), cid("complexType", "T"),
                cid("complexType", "S")} <= retained
        assert retained == brute_retained(schema, {cid("element", "e")})

    def test_head_of_used_member_is_retained(self):
        schema = schema_of("""
  <xs:complexType name="HT"><xs:sequence/></xs:complexType>
  <xs:element name="h" type="tns:HT"/>
  <xs:element name="m" type="tns:HT" substitutionGroup="tns:h"/>""")
        retained = compute_retained_set(schema, usage_of(cid("element", "m")))
        assert cid("element", "h") in retained

    def test_matches_brute_oracle(self, po_schema):
        report = analyze(po_schema, PO_DOC)
        assert compute_retained_set(po_schema, report) == \
            brute_retained(po_schema, report.used_components)


class TestReductionReport:
    def test_all_retained_is_full_ratio(self, po_schema):
        everything = {c.id for c in po_schema.globals()
                      if c.namespace != XSD_NAMESPACE}
        report = reduction_report(po_schema, everything)
        assert report.usage_ratio == 1.0
        assert report.percent() == "100.0%"
        assert report.removed_globals == []

    def test_quarter_ratio(self):
        body = "".join(f'<xs:complexType name="T{i}"><xs:sequence/></xs:complexType>'
                       for i in range(100))
        schema = schema_of(body)
        retained = {cid("complexType", f"T{i}") for i in range(25)}
        report = reduction_report(schema, retained)
        assert report.usage_ratio == 0.25
        assert report.percent() == "25.0%"
        assert report.total_components == 100
        assert len(report.removed_globals) == 75

    def test_builtins_excluded_from_counts(self, po_schema):
        report = reduction_report(po_schema, set())
        for qname in report.removed_globals:
            assert qname.namespace != XSD_NAMESPACE


class TestEmission:
    def test_empty_retained_writes_nothing(self, po_schema, tmp_path):
        files = emit_reduced_schemas(po_schema, set(), tmp_path / "out")
        assert files == []

    def test_not_closed_names_the_gap(self, po_schema, tmp_path):
        retained = {cid("element", "po")}  # POType missing
        with pytest.raises(NotClosedError) as err:
            emit_reduced_schemas(po_schema, retained, tmp_path / "out")
        assert "POType" in str(err.value)

    def test_cross_namespace_import_iff_edge(self, tmp_path):
        a = f"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
      xmlns:tns="urn:a" xmlns:b="urn:b" targetNamespace="urn:a"
      elementFormDefault="qualified">
  <xs:import namespace="urn:b" schemaLocation="b.xsd"/>
  <xs:element name="e" type="b:BT"/>
  <xs:element name="solo" type="xs:string"/>
</xs:schema>"""
        b = """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
      targetNamespace="urn:b" elementFormDefault="qualified">
  <xs:complexType name="BT"><xs:sequence/></xs:complexType>
</xs:schema>"""
        (tmp_path / "a.xsd").write_text(a)
        (tmp_path / "b.xsd").write_text(b)
        schema = load_schema_set([SchemaSource.from_file(tmp_path / "a.xsd")])

        both = compute_retained_set(
            schema, usage_of("element:urn:a:e", "complexType:urn:b:BT"))
        files = emit_reduced_schemas(schema, both, tmp_path / "r1")
        assert len(files) == 2
        a_text = (tmp_path / "r1" / "urn-a.xsd").read_text()
        assert '<xs:import namespace="urn:b" schemaLocation="urn-b.xsd"/>' in a_text
        reloaded = load_schema_set([SchemaSource.from_file(f) for f in files])
        assert "complexType:urn:b:BT" in reloaded.components

        only_solo = compute_retained_set(schema, usage_of("element:urn:a:solo"))
        files = emit_reduced_schemas(schema, only_solo, tmp_path / "r2")
        assert len(files) == 1
        assert "xs:import" not in (tmp_path / "r2" / "urn-a.xsd").read_text()

    def test_unretained_global_element_particle_pruned(self, tmp_path):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:element name="extra" type="tns:XT"/>
  <xs:complexType name="XT">
    <xs:sequence><xs:element name="deep" type="xs:string"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="a" type="xs:string"/>
      <xs:element ref="tns:extra" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>""")
        report = analyze(schema, f'<r xmlns="{TNS}"><a>x</a></r>')
        retained = compute_retained_set(schema, report)
        assert cid("element", "extra") not in retained
        files = emit_reduced_schemas(schema, retained, tmp_path / "red")
        text = Path(files[0]).read_text()
        assert "extra" not in text
        assert "XT" not in text
        load_schema_set([SchemaSource.from_file(f) for f in files])

    def test_substitution_group_attr_dropped_with_head(self, tmp_path):
        schema = schema_of("""
  <xs:complexType name="HT"><xs:sequence/></xs:complexType>
  <xs:element name="h" type="tns:HT"/>
  <xs:element name="m" type="tns:HT" substitutionGroup="tns:h"/>""")
        # Hand-constructed retained set without the head.
        retained = {cid("element", "m"), cid("complexType", "HT")}
        files = emit_reduced_schemas(schema, retained, tmp_path / "red")
        text = Path(files[0]).read_text()
        assert "substitutionGroup" not in text
        load_schema_set([SchemaSource.from_file(f) for f in files])

    def test_byte_stable_output(self, po_schema, tmp_path):
        report = analyze(po_schema, PO_DOC)
        retained = compute_retained_set(po_schema, report)
        f1 = emit_reduced_schemas(po_schema, retained, tmp_path / "one")
        f2 = emit_reduced_schemas(po_schema, retained, tmp_path / "two")
        assert [Path(p).read_text() for p in f1] == [Path(p).read_text() for p in f2]


class TestRoundTrip:
    def _round_trip(self, schema, docs):
        report = analyze_corpus(schema, [(f"d{i}", d) for i, d in enumerate(docs)])
        assert not report.failures
        retained = compute_retained_set(schema, report)
        import tempfile
        with tempfile.TemporaryDirectory() as td:
            files = emit_reduced_schemas(schema, retained, td)
            reduced = load_schema_set([SchemaSource.from_file(f) for f in files])
            report2 = analyze_corpus(reduced,
                                     [(f"d{i}", d) for i, d in enumerate(docs)])
            assert not report2.failures, report2.failures
            return report, retained, reduced, report2

    def test_same_used_components_and_fixed_point(self, po_schema):
        report, retained, reduced, report2 = self._round_trip(po_schema, [PO_DOC])
        assert report2.used_components == report.used_components
        retained2 = compute_retained_set(reduced, report2)
        user_comps = {c for c in reduced.components
                      if reduced.component(c).namespace != XSD_NAMESPACE}
        assert user_comps <= retained2

    def test_reload_is_isomorphic_to_the_restriction(self, po_schema):
        """Reloading the output restores the retained subgraph: identical
        user-global ids, and every original edge between retained
        components is present again."""
        _report, retained, reduced, _r2 = self._round_trip(po_schema, [PO_DOC])
        orig_globals = {c for c in retained
                        if po_schema.component(c).is_global
                        and po_schema.component(c).namespace != XSD_NAMESPACE}
        reduced_globals = {c.id for c in reduced.globals()
                           if c.namespace != XSD_NAMESPACE}
        assert reduced_globals == orig_globals
        orig_edges = {(e.src, e.label, e.dst) for e in po_schema.edges
                      if e.src in retained and e.dst in retained}
        new_edges = {(e.src, e.label, e.dst) for e in reduced.edges}
        assert orig_edges <= new_edges

    def test_inline_types_and_groups_round_trip(self):
        schema = schema_of("""
  <xs:group name="G">
    <xs:sequence><xs:element name="gx" type="xs:int"/></xs:sequence>
  </xs:group>
  <xs:element name="root">
    <xs:complexType>
      <xs:sequence>
        <xs:group ref="tns:G"/>
        <xs:element name="kid">
          <xs:simpleType><xs:restriction base="xs:string">
            <xs:maxLength value="4"/></xs:restriction></xs:simpleType>
        </xs:element>
      </xs:sequence>
      <xs:anyAttribute processContents="skip"/>
    </xs:complexType>
  </xs:element>""")
        doc = f'<root xmlns="{TNS}"><gx>4</gx><kid>ab</kid></root>'
        report, retained, reduced, report2 = self._round_trip(schema, [doc])
        assert report2.used_components == report.used_components

    def test_minimality_on_small_schema(self, po_schema):
        """Dropping any retained component breaks closure or corpus coverage."""
        report = analyze(po_schema, PO_DOC)
        retained = compute_retained_set(po_schema, report)
        for comp_id in sorted(retained):
            if comp_id in report.used_components:
                continue  # dropping it breaks coverage directly
            smaller = retained - {comp_id}
            with pytest.raises(NotClosedError):
                with tempfile.TemporaryDirectory() as td:
                    emit_reduced_schemas(po_schema, smaller, td)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_full_reduced_schema_reloads_to_the_same_schema(seed):
    """Writing every component out and loading it back gives the same schema.

    Each user component compares equal under its id, and the edges are the
    same, so the loader and the XSD writer agree on every construct.
    """
    from synth import generate_case

    _g, xsd, _docs = generate_case(seed)
    schema = load_schema_set([SchemaSource("mem://m.xsd", raw_text=xsd)])
    with tempfile.TemporaryDirectory() as td:
        files = emit_reduced_schemas(schema, set(schema.components), td)
        reloaded = load_schema_set([SchemaSource.from_file(f) for f in files])
    user = [c for c in schema.components.values() if c.namespace != XSD_NAMESPACE]
    assert {c.id for c in reloaded.components.values()
            if c.namespace != XSD_NAMESPACE} == {c.id for c in user}
    for comp in user:
        assert reloaded.component(comp.id) == comp
    assert set(reloaded.edges) == set(schema.edges)


def test_namespace_slug():
    assert namespace_slug("") == "nonamespace"
    assert namespace_slug("urn:test") == "urn-test"
    assert namespace_slug("http://www.example.org/po/v2") == "www-example-org-po-v2"
    assert namespace_slug("urn:test") == namespace_slug("urn:test")


# Text an attribute value may hold: every XML Char but the surrogate range,
# tab, LF, CR and the characters markup escapes drawn often.
_ATTRIBUTE_TEXT = st.text(st.one_of(
    st.sampled_from('\t\n\r&<>"\''),
    st.characters(min_codepoint=0x20, max_codepoint=0xFFFD, blacklist_categories=("Cs",))))


@settings(max_examples=60, deadline=None)
@given(_ATTRIBUTE_TEXT, _ATTRIBUTE_TEXT)
def test_reduced_schemas_keep_facet_and_default_values(enumeration, default):
    """An enumeration facet and an attribute default reload from the reduced XSD unchanged."""
    schema = schema_of(f"""
  <xs:element name="r" type="tns:R"/>
  <xs:simpleType name="E">
    <xs:restriction base="xs:string"><xs:enumeration value={quoteattr(enumeration)}/>
    </xs:restriction>
  </xs:simpleType>
  <xs:complexType name="R">
    <xs:simpleContent><xs:extension base="tns:E">
      <xs:attribute name="a" type="xs:string" default={quoteattr(default)}/>
    </xs:extension></xs:simpleContent>
  </xs:complexType>""")

    def values(schema):
        uses = schema.component(cid("complexType", "R")).detail.attributes
        return (schema.component(cid("simpleType", "E")).detail.facets,
                [use.default for use in uses])

    assert values(schema) == ((("enumeration", enumeration),), [default])
    retained = compute_retained_set(schema, usage_of(cid("element", "r")))
    with tempfile.TemporaryDirectory() as out:
        files = emit_reduced_schemas(schema, retained, out)
        reloaded = load_schema_set([SchemaSource.from_file(f) for f in files])
    assert values(reloaded) == values(schema)
