"""Corpus analysis: node-to-component assignment and usage-fact collection."""

from __future__ import annotations

import collections
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import analysis_oracle
from analysis_oracle import assign_children, merge_reports
from conftest import PO_DOC, TNS, analyze, cid, schema_of
from slimbind import analyzer as analyzer_module
from slimbind.analyzer import (
    ContentMatcher,
    MatchKind,
    ParticlePath,
    UsageReport,
    analyze_corpus,
    assign_root,
    analyze_document,
)
from slimbind.errors import (
    AmbiguousMatchError,
    InvalidTypeOverrideError,
    MalformedDocumentError,
    UnknownRootElementError,
    UnmatchedChildError,
)
from slimbind.model import QName, builtin_type_id


class TestAssignRoot:
    def test_plain_declared_type(self, po_schema):
        elem, typ = assign_root(po_schema, QName(TNS, "po"))
        assert elem == cid("element", "po")
        assert typ == cid("complexType", "POType")

    def test_xsi_type_override_walks_base_chain(self):
        schema = schema_of("""
  <xs:element name="e" type="tns:T"/>
  <xs:complexType name="T"><xs:sequence/></xs:complexType>
  <xs:complexType name="U">
    <xs:complexContent><xs:extension base="tns:T"/></xs:complexContent>
  </xs:complexType>""")
        elem, typ = assign_root(schema, QName(TNS, "e"), xsi_type=QName(TNS, "U"))
        assert typ == cid("complexType", "U")

    def test_unknown_root(self, po_schema):
        with pytest.raises(UnknownRootElementError):
            assign_root(po_schema, QName(TNS, "nothere"))

    def test_invalid_override(self, po_schema):
        with pytest.raises(InvalidTypeOverrideError):
            assign_root(po_schema, QName(TNS, "po"),
                        xsi_type=QName(TNS, "AddressType"))


class TestAssignChildren:
    def test_simple_sequence(self, po_schema):
        out = assign_children(po_schema, cid("complexType", "ItemType"),
                              [QName(TNS, "name"), QName(TNS, "price")])
        assert [a.kind for a in out] == [MatchKind.ELEMENT] * 2
        assert out[0].particle == ParticlePath(cid("complexType", "ItemType"), (0,))
        assert out[0].element == cid("element", "ItemType/name")

    def test_optional_skipped(self, po_schema):
        out = assign_children(po_schema, cid("complexType", "POType"),
                              [QName(TNS, "note")])
        assert out[0].particle.path == (2,)

    def test_substitution_members_matched(self):
        schema = schema_of("""
  <xs:complexType name="HT"><xs:sequence/></xs:complexType>
  <xs:element name="h" type="tns:HT"/>
  <xs:element name="m" type="tns:HT" substitutionGroup="tns:h"/>
  <xs:complexType name="P">
    <xs:sequence><xs:element ref="tns:h" maxOccurs="unbounded"/></xs:sequence>
  </xs:complexType>""")
        out = assign_children(schema, cid("complexType", "P"),
                              [QName(TNS, "m"), QName(TNS, "m")])
        assert all(a.element == cid("element", "m") for a in out)
        assert all(a.head == cid("element", "h") for a in out)
        assert out[0].particle == out[1].particle

    def test_strict_unmatched_raises_with_position(self, po_schema):
        with pytest.raises(UnmatchedChildError) as err:
            assign_children(po_schema, cid("complexType", "ItemType"),
                            [QName(TNS, "zzz")])
        assert "zzz" in str(err.value) and "0" in str(err.value)

    def test_lenient_unmatched_becomes_skip(self, po_schema):
        out = assign_children(po_schema, cid("complexType", "ItemType"),
                              [QName(TNS, "zzz"), QName(TNS, "name")],
                              mode="lenient")
        assert out[0].kind is MatchKind.SKIP
        assert out[1].kind is MatchKind.ELEMENT

    def test_all_group_matches_any_order(self):
        schema = schema_of("""
  <xs:complexType name="A">
    <xs:all>
      <xs:element name="x" type="xs:int"/>
      <xs:element name="y" type="xs:string" minOccurs="0"/>
      <xs:element name="z" type="xs:boolean"/>
    </xs:all>
  </xs:complexType>""")
        for order in (["x", "y", "z"], ["z", "x", "y"], ["y", "z", "x"],
                      ["z", "x"]):
            out = assign_children(schema, cid("complexType", "A"),
                                  [QName(TNS, n) for n in order])
            assert [a.kind for a in out] == [MatchKind.ELEMENT] * len(order)
        with pytest.raises(UnmatchedChildError):
            # A second x exceeds the once-only constraint of the all-group.
            assign_children(schema, cid("complexType", "A"),
                            [QName(TNS, "x"), QName(TNS, "x")])

    def test_ambiguous_choice_raises(self):
        schema = schema_of("""
  <xs:complexType name="A">
    <xs:choice>
      <xs:element name="same" type="xs:int"/>
      <xs:element name="same" type="xs:string"/>
    </xs:choice>
  </xs:complexType>""")
        with pytest.raises(AmbiguousMatchError):
            assign_children(schema, cid("complexType", "A"), [QName(TNS, "same")])


class TestAnalyzeCorpus:
    def test_empty_corpus(self, po_schema):
        report = analyze_corpus(po_schema, [])
        assert report.document_count == 0
        assert report.used_components == set()
        assert report.occurrence_maxima == {}

    def test_used_vs_unused_globals(self):
        schema = schema_of("""
  <xs:element name="e" type="tns:T"/>
  <xs:element name="f" type="tns:U"/>
  <xs:complexType name="T"><xs:sequence/></xs:complexType>
  <xs:complexType name="U"><xs:sequence/></xs:complexType>""")
        report = analyze(schema, f'<e xmlns="{TNS}"/>')
        assert {cid("element", "e"), cid("complexType", "T")} <= \
            report.used_components
        assert cid("element", "f") not in report.used_components
        assert cid("complexType", "U") not in report.used_components
        user_globals = [c for c in schema.globals() if c.namespace == TNS]
        used_globals = [c for c in user_globals if c.id in report.used_components]
        assert len(used_globals) / len(user_globals) == 0.5

    def test_occurrence_maximum_across_documents(self, po_schema):
        three = PO_DOC.replace("<note>rush order</note>",
                               f'<item><name>x</name><price>1</price></item>')
        one = f'<po xmlns="{TNS}" id="1"><item><name>y</name><price>2</price></item></po>'
        report = analyze(po_schema, three, one)
        pp = ParticlePath(cid("complexType", "POType"), (0,))
        assert report.occurrence_maxima[pp] == 3

    def test_instanced_subset_of_used(self, po_schema):
        report = analyze(po_schema, PO_DOC)
        assert report.instanced_types <= report.used_components

    def test_no_substitutions_no_entries(self, po_schema):
        report = analyze(po_schema, PO_DOC)
        assert report.type_substitutions == {}
        assert report.element_substitutions == {}
        assert report.wildcard_fillers == {}

    def test_document_order_does_not_matter(self, po_schema):
        d2 = f'<po xmlns="{TNS}" id="2"><note>n</note></po>'
        r1 = analyze(po_schema, PO_DOC, d2)
        r2 = analyze(po_schema, d2, PO_DOC)
        assert r1.to_json() == r2.to_json()

    def test_malformed_document_recorded_as_failure(self, po_schema):
        report = analyze_corpus(po_schema, [("bad.xml", "<po xmlns='urn:fix'>")])
        assert len(report.failures) == 1
        name, exc = report.failures[0]
        assert isinstance(exc, MalformedDocumentError)
        assert report.document_count == 0

    def test_namespace_uri_holding_a_space_is_a_named_failure(self, po_schema):
        doc = f'<po xmlns="{TNS}" id="1">\n<note xmlns:p="urn:a b">n</note></po>'
        report = analyze_corpus(po_schema, [("s.xml", doc), ("ok.xml", PO_DOC)], "lenient")
        [(name, exc)] = report.failures
        assert isinstance(exc, MalformedDocumentError) and report.document_count == 1
        assert str(exc) == ("MALFORMED_DOCUMENT: s.xml: MALFORMED_XML: namespace URI "
                            "'urn:a b' holds a space, the separator expat puts between a "
                            "namespace and a local name at s.xml:2:1")

    def test_strict_unmatched_aborts_document_only(self, po_schema):
        bad = f'<po xmlns="{TNS}" id="1"><bogus/></po>'
        report = analyze_corpus(po_schema, [("b.xml", bad), ("ok.xml", PO_DOC)],
                                mode="strict")
        assert len(report.failures) == 1
        assert report.document_count == 1

    def test_group_reference_is_used(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:group name="G">
    <xs:sequence><xs:element name="g" type="xs:int"/></xs:sequence>
  </xs:group>
  <xs:complexType name="R">
    <xs:sequence><xs:group ref="tns:G"/></xs:sequence>
  </xs:complexType>""")
        report = analyze(schema, f'<r xmlns="{TNS}"><g>1</g></r>')
        assert cid("group", "G") in report.used_components

    def test_lenient_skips_and_counts_nothing_for_skips(self, po_schema):
        bad = f'<po xmlns="{TNS}" id="1"><bogus/><note>n</note></po>'
        report = analyze_corpus(po_schema, [("b.xml", bad)], mode="lenient")
        assert not report.failures
        assert report.document_count == 1
        assert cid("element", "POType/note") in report.used_components


class TestMergeMonoid:
    def test_merge_equals_whole_corpus(self, po_schema):
        docs = [PO_DOC,
                f'<po xmlns="{TNS}" id="2"><note>a</note></po>',
                f'<memo xmlns="{TNS}">hi</memo>']
        whole = analyze(po_schema, *docs)
        parts = [analyze(po_schema, d) for d in docs]
        reloaded = [UsageReport.from_json(p.to_json()) for p in parts]
        for inputs in (parts, reloaded):
            for _ in range(4):
                random.shuffle(inputs)
                merged = merge_reports(inputs)
                assert merged.to_json() == whole.to_json()
                assert merged._single_child_state == whole._single_child_state

    def test_merge_with_empty_is_identity(self, po_schema):
        report = analyze(po_schema, PO_DOC)
        merged = report.merge(UsageReport())
        assert merged.to_json() == report.to_json()


@st.composite
def split_corpus(draw):
    """A synthetic schema's per-document reports, shuffled and cut into chunks."""
    from synth import generate_case
    from slimbind.loader import SchemaSource, load_schema_set

    _g, xsd, docs = generate_case(draw(st.integers(0, 10_000)),
                                  n_docs=draw(st.integers(1, 6)))
    schema = load_schema_set([SchemaSource("mem://m.xsd", raw_text=xsd)])
    parts = [analyze_document(schema, f"d{i}.xml", d, "lenient")
             for i, d in enumerate(docs)]
    order = draw(st.permutations(range(len(parts))))
    cuts = sorted(draw(st.sets(st.integers(1, len(parts)), max_size=len(parts))))
    bounds = [0, *cuts, len(parts)]
    return [[parts[i] for i in order[a:b]] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=40, deadline=None)
@given(split_corpus())
def test_merge_into_equals_merge_for_any_split(chunks):
    before = [[p.to_json() for p in chunk] for chunk in chunks]
    pure = UsageReport()
    for chunk in chunks:
        part = UsageReport()
        for report in chunk:
            part = part.merge(report)
        pure = pure.merge(part)
    reloaded = [[UsageReport.from_json(p.to_json()) for p in chunk] for chunk in chunks]
    for inputs, warnings in ((chunks, len(pure.warnings)), (reloaded, 0)):
        in_place = UsageReport()
        for chunk in inputs:
            part = UsageReport()
            for report in chunk:
                part.merge_into(report)
            in_place.merge_into(part)
        assert in_place.to_json() == pure.to_json()
        assert in_place._single_child_state == pure._single_child_state
        assert len(in_place.warnings) == warnings
    assert [[p.to_json() for p in chunk] for chunk in chunks] == before  # inputs intact


class TestSingleChild:
    def make(self, body_elem):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="w" type="tns:W" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="W">
    <xs:sequence><xs:element name="k" type="xs:string" minOccurs="0"
        maxOccurs="unbounded"/></xs:sequence>
    <xs:attribute name="a" type="xs:string"/>
  </xs:complexType>""")
        return schema, analyze(schema, body_elem)

    def test_exactly_one_child_qualifies(self):
        _, report = self.make(f'<r xmlns="{TNS}"><w><k>x</k></w></r>')
        assert cid("element", "R/w") in report.single_child_elements

    def test_two_children_disqualify(self):
        _, report = self.make(f'<r xmlns="{TNS}"><w><k>x</k><k>y</k></w></r>')
        assert cid("element", "R/w") not in report.single_child_elements

    def test_attribute_disqualifies(self):
        _, report = self.make(f'<r xmlns="{TNS}"><w a="v"><k>x</k></w></r>')
        assert cid("element", "R/w") not in report.single_child_elements

    def test_text_disqualifies(self):
        _, report = self.make(f'<r xmlns="{TNS}"><w>text<k>x</k></w></r>')
        assert cid("element", "R/w") not in report.single_child_elements

    def test_any_instance_disqualifies(self):
        _, report = self.make(
            f'<r xmlns="{TNS}"><w><k>x</k></w><w><k>x</k><k>y</k></w></r>')
        assert cid("element", "R/w") not in report.single_child_elements

    def test_mixed_type_excluded(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:M"/>
  <xs:complexType name="M" mixed="true">
    <xs:sequence><xs:element name="k" type="xs:string"/></xs:sequence>
  </xs:complexType>""")
        report = analyze(schema, f'<r xmlns="{TNS}"><k>x</k></r>')
        assert cid("element", "r") not in report.single_child_elements


class TestXsiFeatures:
    SCHEMA = """
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="v" type="tns:B" maxOccurs="unbounded"
        nillable="true"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="x" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B">
      <xs:sequence><xs:element name="y" type="xs:int"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>"""

    def test_xsi_type_recorded(self):
        schema = schema_of(self.SCHEMA)
        doc = (f'<r xmlns="{TNS}" xmlns:tns="{TNS}" '
               'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
               '<v xsi:type="tns:D"><x>1</x><y>2</y></v></r>')
        report = analyze(schema, doc)
        assert report.type_substitutions == {
            cid("element", "R/v"): {cid("complexType", "D")}}
        assert cid("complexType", "D") in report.instanced_types

    def test_undeclared_xsi_type_prefix_is_malformed_at_the_element(self):
        schema = schema_of(self.SCHEMA)
        doc = (f'<r xmlns="{TNS}"\n   xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
               '\n  <v xsi:type="zz:D"/></r>')
        for mode in ("strict", "lenient"):
            report = analyze_corpus(schema, [("d.xml", doc)], mode)
            [(name, exc)] = report.failures
            assert str(exc) == ("MALFORMED_DOCUMENT: d.xml: MALFORMED_XML: xsi:type uses "
                                "undeclared prefix 'zz' at d.xml:3:3")

    @pytest.mark.parametrize("value", ["a b", "t:", "t:D\u00a0"],
                             ids=["space", "no-local", "nbsp"])
    def test_malformed_xsi_type_is_malformed_at_the_element(self, value):
        schema = schema_of(self.SCHEMA)
        doc = (f'<r xmlns="{TNS}" xmlns:t="{TNS}"\n'
               '   xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
               f'\n  <v xsi:type="{value}"/></r>')
        for mode in ("strict", "lenient"):
            report = analyze_corpus(schema, [("d.xml", doc)], mode)
            [(name, exc)] = report.failures
            assert str(exc) == ("MALFORMED_DOCUMENT: d.xml: MALFORMED_XML: xsi:type "
                                f"'{value}' is not a QName at d.xml:3:3")

    def test_invalid_xsi_type_strict(self):
        schema = schema_of(self.SCHEMA + '\n  <xs:complexType name="Z"/>')
        doc = (f'<r xmlns="{TNS}" xmlns:tns="{TNS}" '
               'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
               '<v xsi:type="tns:Z"/></r>')
        report = analyze_corpus(schema, [("d.xml", doc)], mode="strict")
        assert report.failures
        assert isinstance(report.failures[0][1], InvalidTypeOverrideError)

    def test_invalid_xsi_type_lenient_keeps_the_declared_type(self):
        schema = schema_of(self.SCHEMA + '\n  <xs:complexType name="Z"/>')
        doc = (f'<r xmlns="{TNS}" xmlns:tns="{TNS}" '
               'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
               '\n<v xsi:type="tns:Z"><x>1</x></v></r>')
        report = analyze_corpus(schema, [("d.xml", doc)], mode="lenient")
        assert report.warnings == [f"d.xml:2:1: xsi:type {{{TNS}}}Z on <{{{TNS}}}v> is "
                                   "not derived from the declared type"]
        assert cid("complexType", "B") in report.instanced_types
        assert cid("complexType", "Z") not in report.used_components
        assert cid("element", "B/x") in report.used_components

    def test_children_of_a_nil_element_are_skipped(self):
        schema = schema_of(self.SCHEMA)
        doc = (f'<r xmlns="{TNS}" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
               '\n<v xsi:nil="true"><x>1</x></v></r>')
        report = analyze_corpus(schema, [("d.xml", doc)], "lenient")
        assert report.warnings == [f"d.xml:2:19: unmatched element <{{{TNS}}}x> skipped"]
        assert cid("element", "B/x") not in report.used_components
        [(_name, exc)] = analyze_corpus(schema, [("d.xml", doc)], "strict").failures
        assert isinstance(exc, UnmatchedChildError)

    def test_nil_counts_type_without_children(self):
        schema = schema_of(self.SCHEMA)
        doc = (f'<r xmlns="{TNS}" '
               'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
               '<v xsi:nil="true"/></r>')
        report = analyze(schema, doc)
        assert cid("complexType", "B") in report.instanced_types
        pp = ParticlePath(cid("complexType", "B"), (0,))
        assert pp not in report.occurrence_maxima


class TestWildcards:
    SCHEMA = """
  <xs:element name="r" type="tns:R"/>
  <xs:element name="known" type="xs:string"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:any processContents="lax" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>"""

    def test_filler_recorded(self):
        schema = schema_of(self.SCHEMA)
        report = analyze(schema, f'<r xmlns="{TNS}"><known>k</known></r>')
        wc = cid("wildcard", "R/any")
        assert report.wildcard_fillers == {wc: {cid("element", "known")}}
        assert wc in report.used_components

    def test_unknown_filler_is_opaque_under_lax(self):
        schema = schema_of(self.SCHEMA)
        report = analyze(schema, f'<r xmlns="{TNS}"><mystery><x/></mystery></r>')
        wc = cid("wildcard", "R/any")
        assert report.wildcard_fillers.get(wc, set()) == set()
        assert wc in report.used_components


def rewalk_coverage(schema, report, doc_text):
    """Independent checker: assign every node top-down via assign_children
    and assert each element plus its effective type is in used_components.
    Returns the number of element nodes checked."""
    from slimbind.model import XSI_NAMESPACE
    from slimbind.runtime import EventKind, ParseContext

    # Build a plain (qname, xsi-type, children) tree first.
    ctx = ParseContext(doc_text)
    stack = []
    root = None
    while True:
        ev = ctx.next_event()
        if ev.kind is EventKind.START_ELEMENT:
            xsi_type = None
            raw = ev.attr(XSI_NAMESPACE, "type")
            if raw is not None:
                nsmap = ctx.active_namespaces()
                raw = raw.strip(" \t\r\n")
                prefix, _, local = raw.rpartition(":")
                xsi_type = QName(nsmap.get(prefix, nsmap.get("", "")), local)
            node = (ev.name, xsi_type, [])
            if stack:
                stack[-1][2].append(node)
            else:
                root = node
            stack.append(node)
        elif ev.kind is EventKind.END_ELEMENT:
            stack.pop()
        elif ev.kind is EventKind.END_DOCUMENT:
            break

    checked = 0

    def effective(declared, xsi_type):
        if xsi_type is None:
            return declared
        override = schema.lookup_global("type", xsi_type)
        assert override is not None
        return override.id

    def visit(node, elem_id, type_id):
        nonlocal checked
        assert elem_id in report.used_components, elem_id
        assert type_id in report.used_components, type_id
        checked += 1
        _qname, _xsi, children = node
        if not children:
            return
        assignments = assign_children(schema, type_id,
                                      [c[0] for c in children])
        for child, assignment in zip(children, assignments):
            assert assignment.kind is not MatchKind.SKIP
            visit(child, assignment.element,
                  effective(assignment.effective_type, child[1]))

    elem_id, type_id = assign_root(schema, root[0], root[1])
    visit(root, elem_id, type_id)
    return checked


class TestCoverageSoundness:
    def test_every_node_maps_to_a_used_component(self, po_schema):
        report = analyze(po_schema, PO_DOC)
        assert rewalk_coverage(po_schema, report, PO_DOC) == 8

    def test_coverage_on_randomized_corpora(self):
        import sys
        sys.path.insert(0, "tests")
        from synth import generate_case
        from slimbind.loader import SchemaSource, load_schema_set
        total = 0
        for seed in range(50_000, 50_020):
            _g, xsd, docs = generate_case(seed)
            schema = load_schema_set([SchemaSource("mem://c.xsd", raw_text=xsd)])
            report = analyze_corpus(schema,
                                    [(f"{i}", d) for i, d in enumerate(docs)])
            assert not report.failures
            # Wildcard-opaque subtrees are the one exception the checker
            # cannot re-derive; skip corpora that contain them.
            if any("wildcard" in w for w in report.warnings):
                continue
            for doc in docs:
                total += rewalk_coverage(schema, report, doc)
        assert total > 100

    def test_occurrence_bounded_by_declared_in_strict(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="x" type="xs:int" maxOccurs="2"/></xs:sequence>
  </xs:complexType>""")
        report = analyze(schema, f'<r xmlns="{TNS}"><x>1</x><x>2</x></r>')
        pp = ParticlePath(cid("complexType", "R"), (0,))
        assert report.occurrence_maxima[pp] == 2
        over = analyze_corpus(
            schema, [("d.xml", f'<r xmlns="{TNS}"><x>1</x><x>2</x><x>3</x></r>')],
            mode="strict")
        assert over.failures  # third x exceeds the declared maximum


def test_report_json_round_trip(po_schema):
    report = analyze(po_schema, PO_DOC)
    text = report.to_json()
    back = UsageReport.from_json(text)
    assert back.to_json() == text
    data = __import__("json").loads(text)
    assert set(data) == {"documentCount", "usedComponents", "instancedTypes",
                         "typeSubstitutions", "elementSubstitutions",
                         "wildcardFillers", "occurrenceMaxima",
                         "singleChildElements", "rootElements"}


# ---------------------------------------------------------------- one reading path

@pytest.fixture
def reads(monkeypatch):
    """How many times the analyzer reads each document, by document name."""
    counts = collections.Counter()

    class Counted(analyzer_module._ExpatSource):
        def __init__(self, source, source_name, *handlers):
            counts[source_name] += 1
            super().__init__(source, source_name, *handlers)

    monkeypatch.setattr(analyzer_module, "_ExpatSource", Counted)
    return counts


_OPEN_TAG = re.compile(r"^(\s*)<([\w.-]+)")


def _element_block(lines, i):
    """Lines ``i..j`` holding the element that opens on line ``i``, or None."""
    m = _OPEN_TAG.match(lines[i])
    if m is None:
        return None
    if "</" in lines[i] or lines[i].endswith("/>"):
        return i, i
    close = f"{m.group(1)}</{m.group(2)}>"
    return i, lines.index(close, i + 1)


_XSI = "http://www.w3.org/2001/XMLSchema-instance"


def _sibling_after(lines, block):
    """The block of the next sibling of ``block``, or None."""
    a, b = block
    if b + 1 >= len(lines) - 1:
        return None
    nxt = _element_block(lines, b + 1)
    if nxt is None or _OPEN_TAG.match(lines[b + 1]).group(1) != \
            _OPEN_TAG.match(lines[a]).group(1):
        return None
    return nxt


@st.composite
def edited_corpus(draw):
    """A synthetic schema and a corpus edited so that shapes and leaves repeat.

    Edits: repeat an element (a leaf or a whole subtree) right after itself,
    swap it with its next sibling, drop it, give it an undeclared attribute
    (in no namespace or in a foreign one), make an element with children
    ``xsi:nil`` or give it text, or insert an element the schema does not
    declare, whose subtree may hold a malformed ``xsi:type``.  Edited documents may fail
    in strict mode; both analyzers must then fail them the same way.
    """
    from synth import generate_case
    from slimbind.loader import SchemaSource, load_schema_set

    _g, xsd, docs = generate_case(draw(st.integers(0, 10_000)),
                                  n_docs=draw(st.integers(1, 4)))
    edited = []
    for doc in docs:
        lines = doc.split("\n")
        for k in range(draw(st.integers(0, 6))):
            if len(lines) < 3:
                break
            i = draw(st.integers(1, len(lines) - 2))  # inside the root
            edit = draw(st.sampled_from(["repeat", "repeat", "attribute", "unknown", "swap",
                                         "drop", "nil", "bad-type", "text"]))
            block = _element_block(lines, i)
            if edit == "repeat" and block is not None:
                a, b = block
                lines[b + 1:b + 1] = lines[a:b + 1]
            elif edit == "attribute" and block is not None:
                attr = draw(st.sampled_from([f'edit{k}="x"',
                                             f'xmlns:u{k}="urn:u" u{k}:a="x"']))
                lines[i] = _OPEN_TAG.sub(rf'\g<0> {attr}', lines[i], count=1)
            elif edit == "unknown":
                lines.insert(i, f"<unknown{k % 2}/>")
            elif edit == "swap" and block is not None:
                nxt = _sibling_after(lines, block)
                if nxt is not None:
                    (a, b), (c, d) = block, nxt
                    lines[a:d + 1] = lines[c:d + 1] + lines[a:b + 1]
            elif edit == "drop" and block is not None:
                del lines[block[0]:block[1] + 1]
            elif edit == "nil" and block is not None and block[1] > block[0]:
                lines[i] = _OPEN_TAG.sub(rf'\g<0> xmlns:xn{k}="{_XSI}" xn{k}:nil="true"',
                                         lines[i], count=1)
            elif edit == "text" and block is not None and block[1] > block[0]:
                lines.insert(i + 1, "stray text")
            elif edit == "bad-type":
                lines.insert(i, f'<unknown{k % 2}><deep xmlns:xt="{_XSI}" '
                                f'xt:type="{draw(st.sampled_from(["zz:T", "a b", "t:"]))}"/>'
                                f'</unknown{k % 2}>')
        edited.append("\n".join(lines))
    schema = load_schema_set([SchemaSource("mem://m.xsd", raw_text=xsd)])
    return schema, [(f"d{i}.xml", d) for i, d in enumerate(edited)]


def _outcome(report):
    return (report.to_json(), list(report.warnings),
            [(name, type(exc).__name__, str(exc)) for name, exc in report.failures])


def _outcomes(schema, corpus):
    """The streaming outcome of ``corpus`` in each mode; asserts the oracle's is the same."""
    out = {}
    for mode in ("strict", "lenient"):
        out[mode] = _outcome(analyze_corpus(schema, corpus, mode))
        assert out[mode] == _outcome(analysis_oracle.analyze_corpus(schema, corpus, mode)), mode
    return out


@settings(max_examples=80, deadline=None)
@given(edited_corpus())
def test_streaming_analysis_equals_unmemoised_tree(case):
    """The streaming pass against the tree oracle: reports, warnings, failures."""
    _outcomes(*case)


def test_streaming_pass_needs_no_tree(reads):
    """The acceptance megabyte, and a lenient corpus with foreign elements."""
    from test_acceptance import PERF_SCHEMA, build_megabyte_document
    from synth import generate_case
    from slimbind.loader import SchemaSource, load_schema_set

    doc, n_records = build_megabyte_document()
    report = analyze_corpus(schema_of(PERF_SCHEMA), [("log.xml", doc)])
    assert report.document_count == 1 and not report.failures
    assert report.occurrence_maxima[ParticlePath(cid("complexType", "LogType"), (0,))] \
        == n_records
    assert reads == {"log.xml": 1}

    foreign = '<f:extra xmlns:f="urn:foreign"><f:deep>x</f:deep></f:extra>'
    g, xsd, docs = generate_case(24, n_docs=8)  # xsi:type, choices, extensions
    schema = load_schema_set([SchemaSource("mem://m.xsd", raw_text=xsd)])
    corpus = [(f"d{i}.xml", d.replace(">", ">" + foreign, 1)) for i, d in enumerate(docs)]
    reads.clear()
    report = analyze_corpus(schema, corpus, "lenient")
    assert report.document_count == 8 and not report.failures
    assert sum("unmatched element <{urn:foreign}extra>" in w for w in report.warnings) == 8
    assert reads == {name: 1 for name, _ in corpus}


def test_each_synth_document_is_read_once(reads):
    """Wildcards, choices, substitution groups, xsi:type and extension chains
    are decided in one read, in both modes, as the oracle decides them."""
    from synth import generate_case
    from slimbind.loader import SchemaSource, load_schema_set

    analyses = with_wildcards = 0
    for seed in range(200):
        g, xsd, docs = generate_case(seed)
        schema = load_schema_set([SchemaSource("mem://m.xsd", raw_text=xsd)])
        corpus = [(f"d{i}.xml", d) for i, d in enumerate(docs)]
        reads.clear()
        for mode, outcome in _outcomes(schema, corpus).items():
            assert outcome[2] == [], (seed, mode)
        assert reads == {name: 2 for name, _ in corpus}, seed  # once in each mode
        analyses += 2 * len(docs)
        with_wildcards += 2 * len(docs) * any(t.has_wildcard for t in g.types.values())
    assert analyses > 900 and with_wildcards > 200


class TestDeterministicDifferential:
    """Paths the edited corpora rarely reach, each equal to the oracle's outcome."""

    def test_ambiguous_names(self, reads):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:element name="g" type="xs:int"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="x" type="xs:int"/>
      <xs:element name="y" type="xs:string" minOccurs="0"/>
      <xs:element name="x" type="tns:X"/>
      <xs:element name="g" type="xs:string" minOccurs="0"/>
      <xs:any processContents="lax" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="X">
    <xs:sequence><xs:element name="z" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:element name="c" type="tns:C"/>
  <xs:complexType name="C">
    <xs:choice>
      <xs:element name="same" type="xs:int"/>
      <xs:element name="same" type="xs:string"/>
    </xs:choice>
  </xs:complexType>""")
        corpus = [("pos.xml", f'<r xmlns="{TNS}"><x>1</x><y/><x><z>2</z></x><g>s</g><g>3</g></r>'),
                  ("choice.xml", f'<c xmlns="{TNS}"><same>1</same></c>')]
        out = _outcomes(schema, corpus)
        for mode in ("strict", "lenient"):
            [(name, error, _message)] = out[mode][2]
            assert (name, error) == ("choice.xml", "AmbiguousMatchError")
        report = analyze(schema, corpus[0][1])
        assert {cid("element", "R/x"), cid("element", "X/z"), cid("element", "g")} \
            <= report.used_components
        assert report.wildcard_fillers == {cid("wildcard", "R/any"): {cid("element", "g")}}
        assert reads["pos.xml"] > 1  # the positions settle the names

    @pytest.mark.parametrize("process", ["lax", "skip"])
    def test_wildcard_filler_and_opaque_child(self, process, reads):
        schema = schema_of(TestWildcards.SCHEMA.replace('"lax"', f'"{process}"'))
        doc = f'<r xmlns="{TNS}"><known>k</known>\n<mystery a="1"><x/></mystery><known/></r>'
        out = _outcomes(schema, [("w.xml", doc)])
        assert out["strict"] == out["lenient"]
        assert out["strict"][1] == [
            f"w.xml:2:1: wildcard content <{{{TNS}}}mystery> has no global declaration; "
            "subtree recorded against the wildcard"]
        assert reads == {"w.xml": 2}

    def test_lenient_out_of_order_child(self, reads):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="a" type="xs:string"/>
      <xs:element name="b" type="tns:B"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="y" type="xs:int"/></xs:sequence>
  </xs:complexType>""")
        out = _outcomes(schema, [("o.xml", f'<r xmlns="{TNS}"><b><x/></b></r>')])
        assert out["lenient"][1] == [f"o.xml:1:20: unmatched element <{{{TNS}}}b> skipped"]
        assert cid("complexType", "B") not in out["lenient"][0]
        [(_name, error, _message)] = out["strict"][2]
        assert error == "UnmatchedChildError"
        assert reads["o.xml"] > 2  # a read to find the mismatch, one with it fixed

    def test_strict_error_order(self, po_schema):
        doc = f'<po xmlns="{TNS}" id="1">\n<item><bad/></item>\n<zzz/></po>'
        out = _outcomes(po_schema, [("e.xml", doc)])
        [(_name, error, message)] = out["strict"][2]
        assert error == "UnmatchedChildError"
        assert message.startswith("UNMATCHED_CHILD: e.xml:1: ")
        assert "<{urn:fix}zzz>" in message

    def test_strict_mismatch_then_malformed_xml(self, po_schema):
        doc = f'<po xmlns="{TNS}" id="1"><zzz/>\n<item><name>n</price></item></po>'
        out = _outcomes(po_schema, [("m.xml", doc)])
        for mode in ("strict", "lenient"):
            [(_name, error, message)] = out[mode][2]
            assert error == "MalformedDocumentError"
            assert message.endswith("mismatched tag at m.xml:2:16")


def test_streamed_megabyte_peak_allocation():
    import tracemalloc

    from test_acceptance import PERF_SCHEMA, build_megabyte_document

    schema = schema_of(PERF_SCHEMA)
    data = build_megabyte_document()[0].encode()
    tracemalloc.start()
    try:
        report = analyze_corpus(schema, [("log.xml", data)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.document_count == 1
    assert peak < 2 * 2**20, peak


def test_corpus_builds_one_matcher_per_type(monkeypatch):
    from synth import generate_case
    from slimbind.loader import SchemaSource, load_schema_set

    _g, xsd, docs = generate_case(8, n_docs=8)
    schema = load_schema_set([SchemaSource("mem://m.xsd", raw_text=xsd)])
    built = []
    init = ContentMatcher.__init__

    def counted(self, schema, type_id):
        built.append(type_id)
        init(self, schema, type_id)

    monkeypatch.setattr(ContentMatcher, "__init__", counted)
    report = analyze_corpus(schema, [(f"d{i}.xml", d) for i, d in enumerate(docs)])
    assert report.document_count == 8 and not report.failures
    assert len(built) == len(set(built)) > 1
    # Lone documents build their own, so together they build more.
    built.clear()
    for i, d in enumerate(docs):
        analyze_document(schema, f"d{i}.xml", d, "strict")
    assert len(built) > len(set(built))


def test_same_shape_siblings_match_once(po_schema, monkeypatch):
    calls = []
    match = ContentMatcher.match

    def counted(self, names, strict):
        calls.append((self.type_id, tuple(names)))
        return match(self, names, strict)

    monkeypatch.setattr(ContentMatcher, "match", counted)
    items = "".join(f'<item qty="{n}"><name>n{n}</name><price>{n}</price></item>'
                    for n in range(5))
    report = analyze(po_schema, f'<po xmlns="{TNS}" id="1">{items}</po>')
    assert len(calls) == len(set(calls)) == 2  # the po's children, then one item shape
    assert cid("attribute", "ItemType/@qty") in report.used_components


def test_extension_chain_builds_each_name_table_once(monkeypatch):
    """Matchers of derived types share their base levels' name tables."""
    k = 5
    levels = ['<xs:complexType name="T0"><xs:sequence>'
              '<xs:element name="e0" type="xs:int"/></xs:sequence></xs:complexType>']
    for i in range(1, k):
        levels.append(
            f'<xs:complexType name="T{i}"><xs:complexContent>'
            f'<xs:extension base="tns:T{i - 1}"><xs:sequence>'
            f'<xs:element name="e{i}" type="xs:int"/></xs:sequence>'
            f'</xs:extension></xs:complexContent></xs:complexType>')
    roots = [f'<xs:element name="r{i}" type="tns:T{i}"/>' for i in range(k)]
    schema = schema_of("\n".join(levels + roots))
    docs = [f'<r{i} xmlns="{TNS}">' + "".join(f"<e{j}>1</e{j}>" for j in range(i + 1))
            + f"</r{i}>" for i in range(k)]
    built = []
    name_table = analyzer_module._name_table

    def counted(schema, particle):
        built.append(particle.element)
        return name_table(schema, particle)

    monkeypatch.setattr(analyzer_module, "_name_table", counted)
    report = analyze(schema, *docs)
    assert report.document_count == k
    assert sorted(built) == sorted(cid("element", f"T{i}/e{i}") for i in range(k))
