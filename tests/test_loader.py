"""Schema loading: resolution, namespaces, errors, determinism."""

from __future__ import annotations

import os

import pytest

from conftest import TNS, XS_HEAD, cid, schema_of
from genutil import build_and_import
from slimbind.binding import BindingOptions
from slimbind.errors import (
    CyclicDerivationError,
    DanglingReferenceError,
    MalformedSchemaError,
    MalformedXmlError,
    UnresolvedImportError,
)
from slimbind.loader import Catalog, SchemaSource, load_schema_set
from slimbind.model import (
    ComponentKind,
    Compositor,
    ContentKind,
    EdgeLabel,
    Occurs,
    QName,
    XSD_NAMESPACE,
    builtin_type_id,
    builtin_type_ids,
)
from slimbind.runtime import expat_name, xsi_type_name


def test_single_global_string_element():
    schema = schema_of('<xs:element name="e" type="xs:string"/>')
    user = [c for c in schema.components.values() if c.namespace == TNS]
    assert len(user) == 1
    elem = user[0]
    assert elem.kind is ComponentKind.ELEMENT_DECL
    assert elem.detail.declared_type == builtin_type_id("string")
    complexes = [c for c in user if c.kind is ComponentKind.COMPLEX_TYPE]
    assert complexes == []


def test_include_resolves_declared_type_edge(tmp_path):
    (tmp_path / "b.xsd").write_text(f"""{XS_HEAD}
  <xs:complexType name="T"><xs:sequence/></xs:complexType>
</xs:schema>""")
    (tmp_path / "a.xsd").write_text(f"""{XS_HEAD}
  <xs:include schemaLocation="b.xsd"/>
  <xs:element name="e" type="tns:T"/>
</xs:schema>""")
    schema = load_schema_set([SchemaSource.from_file(tmp_path / "a.xsd")])
    edges = list(schema.out_edges(cid("element", "e"), {EdgeLabel.DECLARED_TYPE}))
    assert [e.dst for e in edges] == [cid("complexType", "T")]


def test_dangling_reference_names_the_qname():
    with pytest.raises(DanglingReferenceError) as err:
        schema_of('<xs:element name="e" type="tns:U"/>')
    assert "U" in str(err.value)


def test_builtin_types_present():
    ids = builtin_type_ids()
    assert builtin_type_id("string") in ids
    assert builtin_type_id("anyType") in ids
    schema = schema_of("")
    assert ids <= set(schema.components)


def test_load_order_independence(tmp_path):
    (tmp_path / "one.xsd").write_text(f"""{XS_HEAD}
  <xs:element name="a" type="tns:T"/>
  <xs:complexType name="T">
    <xs:sequence><xs:element name="x" type="xs:int"/></xs:sequence>
  </xs:complexType>
</xs:schema>""")
    (tmp_path / "two.xsd").write_text(f"""{XS_HEAD}
  <xs:element name="b" type="tns:T"/>
</xs:schema>""")
    s1 = load_schema_set([SchemaSource.from_file(tmp_path / "one.xsd"),
                          SchemaSource.from_file(tmp_path / "two.xsd")])
    s2 = load_schema_set([SchemaSource.from_file(tmp_path / "two.xsd"),
                          SchemaSource.from_file(tmp_path / "one.xsd")])
    assert set(s1.components) == set(s2.components)
    assert set(s1.edges) == set(s2.edges)
    assert s1.global_index == s2.global_index


def test_chameleon_include_adopts_namespace(tmp_path):
    (tmp_path / "naked.xsd").write_text("""<xs:schema
        xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="C"><xs:sequence/></xs:complexType>
</xs:schema>""")
    (tmp_path / "host.xsd").write_text(f"""{XS_HEAD}
  <xs:include schemaLocation="naked.xsd"/>
  <xs:element name="e" type="tns:C"/>
</xs:schema>""")
    schema = load_schema_set([SchemaSource.from_file(tmp_path / "host.xsd")])
    assert schema.lookup_global("type", QName(TNS, "C")) is not None


def test_cyclic_derivation_rejected():
    with pytest.raises(CyclicDerivationError):
        schema_of("""
  <xs:complexType name="A">
    <xs:complexContent><xs:extension base="tns:B"/></xs:complexContent>
  </xs:complexType>
  <xs:complexType name="B">
    <xs:complexContent><xs:extension base="tns:A"/></xs:complexContent>
  </xs:complexType>""")


def test_substitution_cycle_rejected():
    with pytest.raises(CyclicDerivationError):
        schema_of("""
  <xs:element name="a" substitutionGroup="tns:b"/>
  <xs:element name="b" substitutionGroup="tns:a"/>""")


def test_duplicate_global_rejected(tmp_path):
    (tmp_path / "a.xsd").write_text(f"""{XS_HEAD}
  <xs:complexType name="T"><xs:sequence/></xs:complexType>
  <xs:complexType name="T"><xs:sequence/></xs:complexType>
</xs:schema>""")
    with pytest.raises(MalformedSchemaError):
        load_schema_set([SchemaSource.from_file(tmp_path / "a.xsd")])


def test_a_target_namespace_holding_a_space_is_named():
    with pytest.raises(MalformedSchemaError) as info:
        load_schema_set([SchemaSource("mem://ns.xsd", raw_text=(
            '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"\n'
            '    xmlns:t="urn:a b" targetNamespace="urn:a b"/>'))])
    assert "namespace URI 'urn:a b' holds a space" in str(info.value)
    assert str(info.value).endswith(" at mem://ns.xsd:1:1")


@pytest.mark.parametrize("qname", ["xs:", "tns:R x"])
def test_malformed_qname_is_a_schema_error_at_its_line(qname):
    with pytest.raises(MalformedSchemaError) as info:
        schema_of(f'<xs:element name="e"\n    type="{qname}"/>')
    assert str(info.value) == \
        f"MALFORMED_SCHEMA: mem://fixture.xsd:2: '{qname}' is not a QName"


@pytest.mark.parametrize("value, refusal, xsi_refusal", [
    (":T", "':T' is not a QName", "xsi:type ':T' is not a QName"),
    ("T", None, None),
    (" T ", None, None),
    ("p:T", "undeclared prefix in QName 'p:T'", "xsi:type uses undeclared prefix 'p'"),
    ("xs:", "'xs:' is not a QName", "xsi:type 'xs:' is not a QName"),
    ("a:b:c", "'a:b:c' is not a QName", "xsi:type 'a:b:c' is not a QName"),
    ("T U", "'T U' is not a QName", "xsi:type 'T U' is not a QName"),
], ids=repr)
def test_a_qname_attribute_is_read_as_xsi_type_is(value, refusal, xsi_refusal):
    """A schema's ``type`` is refused exactly when the same ``xsi:type`` is.

    Both are read where the default namespace, ``xs`` and ``a`` are
    declared, and ``p`` is not; each keeps its own error and message.
    """
    text = ('<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" '
            f'xmlns="{TNS}" xmlns:a="{TNS}" targetNamespace="{TNS}">\n'
            f'<xs:element name="e" type="{value}"/>\n'
            '<xs:complexType name="T"><xs:sequence/></xs:complexType></xs:schema>')
    scope = {"": TNS, "xs": XSD_NAMESPACE, "a": TNS}
    if refusal is None:
        schema = load_schema_set([SchemaSource("mem://q.xsd", raw_text=text)])
        assert schema.component(cid("element", "e")).detail.declared_type == \
            cid("complexType", "T")
        assert xsi_type_name(value, scope, 2, 1) == expat_name(TNS, "T")
        return
    with pytest.raises(MalformedSchemaError) as schema_error:
        load_schema_set([SchemaSource("mem://q.xsd", raw_text=text)])
    assert str(schema_error.value) == f"MALFORMED_SCHEMA: mem://q.xsd:2: {refusal}"
    with pytest.raises(MalformedXmlError) as xml_error:
        xsi_type_name(value, scope, 2, 1)
    assert str(xml_error.value) == f"MALFORMED_XML: {xsi_refusal} at <input>:2:1"


_DECLARATIONS = {
    "global element": ("element", '<xs:annotation/>\n<xs:element name="{}" type="xs:string"/>'),
    "local element": ("element", '<xs:element name="r"><xs:complexType><xs:sequence>\n'
                      '<xs:element name="{}" type="xs:string"/></xs:sequence>'
                      '</xs:complexType></xs:element>'),
    "local attribute": ("attribute", '<xs:element name="r"><xs:complexType>\n'
                        '<xs:attribute name="{}" type="xs:string"/>'
                        '</xs:complexType></xs:element>'),
}


@pytest.mark.parametrize("name", ["a|b", 'a"b', "a\\b", "a b", "p:a", "1a", ""],
                         ids=["bar", "quote", "backslash", "space", "colon", "digit", "empty"])
@pytest.mark.parametrize("site", _DECLARATIONS)
def test_a_declared_name_that_is_no_ncname_is_refused_at_its_line(site, name):
    tag, body = _DECLARATIONS[site]
    with pytest.raises(MalformedSchemaError) as info:
        schema_of(body.format(name.replace('"', "&quot;")))
    assert str(info.value) == (f"MALFORMED_SCHEMA: mem://fixture.xsd:3: name {name!r} "
                               f"of xs:{tag} is not an NCName")


@pytest.mark.parametrize("site", _DECLARATIONS)
def test_a_declared_name_is_read_without_its_xml_whitespace(site):
    """A declared name is an xs:NCName, whose whitespace is collapsed."""
    tag, body = _DECLARATIONS[site]
    schema = schema_of(body.format(" \tx\u00b7y-1 "))
    assert "x\u00b7y-1" in [c.detail.qname.local for c in schema.components.values()
                              if c.kind.value == tag and c.namespace == TNS]


@pytest.mark.parametrize("value, flag", [(" true ", True), ("\t1\n", True),
                                         ("\u00a0true", False), ("1\u2003", False)])
def test_schema_booleans_trim_only_xml_whitespace(value, flag):
    schema = schema_of(f"""
  <xs:element name="e" type="xs:string" abstract="{value}" nillable="{value}"/>
  <xs:complexType name="T" abstract="{value}" mixed="{value}"><xs:sequence/></xs:complexType>
  <xs:complexType name="U">
    <xs:complexContent mixed="{value}"><xs:extension base="tns:T"/></xs:complexContent>
  </xs:complexType>""")
    elem = schema.component(cid("element", "e")).detail
    t = schema.component(cid("complexType", "T")).detail
    u = schema.component(cid("complexType", "U")).detail
    assert (elem.is_abstract, elem.nillable, t.is_abstract, t.mixed, u.mixed) == (flag,) * 5


def test_unsupported_constructs_warn_not_fail(tmp_path):
    (tmp_path / "other.xsd").write_text(f"{XS_HEAD}\n</xs:schema>")
    (tmp_path / "a.xsd").write_text(f"""{XS_HEAD}
  <xs:redefine schemaLocation="other.xsd"/>
  <xs:element name="e" type="xs:string">
    <xs:unique name="u"><xs:selector xpath="x"/><xs:field xpath="@y"/></xs:unique>
  </xs:element>
</xs:schema>""")
    schema = load_schema_set([SchemaSource.from_file(tmp_path / "a.xsd")])
    text = "\n".join(schema.warnings)
    assert "redefine" in text
    assert "unique" in text


def test_catalog_file_and_unresolved_import(tmp_path):
    (tmp_path / "dep.xsd").write_text("""<xs:schema
        xmlns:xs="http://www.w3.org/2001/XMLSchema"
        targetNamespace="urn:dep">
  <xs:complexType name="D"><xs:sequence/></xs:complexType>
</xs:schema>""")
    (tmp_path / "cat.txt").write_text(f"urn:dep\tdep.xsd\n# comment\n")
    main = f"""{XS_HEAD.replace('>', ' xmlns:d="urn:dep">')}
  <xs:import namespace="urn:dep"/>
  <xs:element name="e" type="d:D"/>
</xs:schema>"""
    catalog = Catalog.from_file(tmp_path / "cat.txt")
    schema = load_schema_set([SchemaSource("mem://main.xsd", raw_text=main)], catalog)
    assert schema.lookup_global("type", QName("urn:dep", "D")) is not None

    with pytest.raises(UnresolvedImportError):
        load_schema_set([SchemaSource("mem://m2.xsd", raw_text=f"""{XS_HEAD}
  <xs:import namespace="urn:gone" schemaLocation="missing.xsd"/>
</xs:schema>""")])


def test_group_and_attribute_group_expansion():
    schema = schema_of("""
  <xs:group name="G">
    <xs:sequence><xs:element name="x" type="xs:int"/></xs:sequence>
  </xs:group>
  <xs:attributeGroup name="AG">
    <xs:attribute name="id" type="xs:int" use="required"/>
  </xs:attributeGroup>
  <xs:complexType name="T">
    <xs:sequence><xs:group ref="tns:G"/></xs:sequence>
    <xs:attributeGroup ref="tns:AG"/>
  </xs:complexType>""")
    t = schema.component(cid("complexType", "T"))
    root = t.detail.content.root
    inner = root.children[0]
    assert inner.ref == cid("group", "G")
    assert [schema.component(p.element).detail.qname.local
            for p in inner.children] == ["x"]
    assert len(t.detail.attributes) == 1
    assert t.detail.attributes[0].via_group == cid("attributeGroup", "AG")
    labels = {e.label for e in schema.out_edges(t.id)}
    assert EdgeLabel.GROUP_REF in labels


def test_circular_group_reference_rejected():
    with pytest.raises(MalformedSchemaError):
        schema_of("""
  <xs:group name="G1">
    <xs:sequence><xs:group ref="tns:G2"/></xs:sequence>
  </xs:group>
  <xs:group name="G2">
    <xs:sequence><xs:group ref="tns:G1"/></xs:sequence>
  </xs:group>""")


def test_prohibited_particles_dropped():
    nested = """<xs:sequence>
      <xs:element name="gone" type="xs:int" minOccurs="0" maxOccurs="0"/>
      <xs:element name="kept" type="xs:int"/>
    </xs:sequence>"""
    # A prohibited top-level particle leaves the content empty, as nested ones are dropped.
    for content, kept in [
            (nested, ["kept"]),
            ('<xs:sequence maxOccurs="0"><xs:element name="a" type="xs:int"/></xs:sequence>',
             None),
            ('<xs:choice minOccurs="0" maxOccurs="0">'
             '<xs:element name="a" type="xs:int"/></xs:choice>', None),
            ('<xs:group ref="tns:G" maxOccurs="0"/>', None)]:
        schema = schema_of(f"""
  <xs:group name="G">
    <xs:sequence><xs:element name="a" type="xs:int"/></xs:sequence>
  </xs:group>
  <xs:complexType name="T">
    {content}
  </xs:complexType>""")
        t = schema.component(cid("complexType", "T"))
        if kept is None:
            assert t.detail.content.kind is ContentKind.EMPTY, content
            assert not schema.owned(t.id), content
            continue
        names = [schema.component(p.element).detail.qname.local
                 for p in t.detail.content.root.children]
        assert names == kept


def test_prohibited_top_level_sequence_parses_end_to_end(tmp_path):
    """Without pruning, a type whose only sequence is prohibited binds no child."""
    schema = schema_of("""
  <xs:element name="e" type="tns:T"/>
  <xs:complexType name="T">
    <xs:sequence maxOccurs="0"><xs:element name="a" type="xs:int"/></xs:sequence>
    <xs:attribute name="k" type="xs:int"/>
  </xs:complexType>""")
    valid, invalid = f'<e xmlns="{TNS}" k="1"/>', f'<e xmlns="{TNS}"><a>1</a></e>'
    _model, module, _usage, _artifacts = build_and_import(
        schema, [valid], tmp_path, BindingOptions(prune_unused=False),
        retained=set(schema.components))
    record, warnings = module.parse_document(valid, mode="strict")
    assert record.k == 1 and warnings == []
    _record, warnings = module.parse_document(invalid, mode="lenient")
    assert [w.code for w in warnings] == ["UNKNOWN_ELEMENT"]


@pytest.mark.parametrize("body", [
    '<xs:element name="e" type="xs:int"><xs:simpleType>'
    '<xs:restriction base="xs:int"/></xs:simpleType></xs:element>',
    '<xs:element name="e" type="tns:C"><xs:complexType/></xs:element>',
    '<xs:element name="e"><xs:complexType/><xs:simpleType>'
    '<xs:restriction base="xs:int"/></xs:simpleType></xs:element>',
    '<xs:complexType name="T"><xs:sequence><xs:element name="e"><xs:simpleType>'
    '<xs:restriction base="xs:int"/></xs:simpleType><xs:complexType/></xs:element>'
    '</xs:sequence></xs:complexType>',
    '<xs:attribute name="a" type="xs:int"><xs:simpleType>'
    '<xs:restriction base="xs:int"/></xs:simpleType></xs:attribute>',
    '<xs:attribute name="a"><xs:complexType/></xs:attribute>',
    '<xs:complexType name="T"><xs:attribute name="a"><xs:complexType/></xs:attribute>'
    '</xs:complexType>',
    '<xs:simpleType name="S"><xs:restriction base="xs:int"><xs:simpleType>'
    '<xs:restriction base="xs:int"/></xs:simpleType></xs:restriction></xs:simpleType>',
    '<xs:simpleType name="S"><xs:list itemType="xs:int"><xs:simpleType>'
    '<xs:restriction base="xs:int"/></xs:simpleType></xs:list></xs:simpleType>',
    '<xs:complexType name="T"><xs:sequence><xs:any processContents="bogus"/>'
    '</xs:sequence></xs:complexType>',
    '<xs:complexType name="T"><xs:anyAttribute processContents="Lax"/></xs:complexType>',
])
def test_forbidden_type_and_wildcard_declarations_refused(body):
    """What XSD 1.0 forbids in declarations, simple types and wildcards is refused at its line."""
    with pytest.raises(MalformedSchemaError, match=r"^MALFORMED_SCHEMA: mem://fixture\.xsd:3: "):
        schema_of(f'<xs:complexType name="C"/>\n{body}')


def test_all_group_constraints():
    schema = schema_of("""
  <xs:complexType name="T">
    <xs:all>
      <xs:element name="x" type="xs:int"/>
      <xs:element name="y" type="xs:int" minOccurs="0"/>
    </xs:all>
  </xs:complexType>""")
    root = schema.component(cid("complexType", "T")).detail.content.root
    assert root.compositor is Compositor.ALL
    with pytest.raises(MalformedSchemaError):
        schema_of("""
  <xs:complexType name="B">
    <xs:all><xs:element name="x" type="xs:int" maxOccurs="2"/></xs:all>
  </xs:complexType>""")


def _particle_occurs(bounds):
    """The occurs of element ``x``, declared on line 3 with ``bounds``."""
    schema = schema_of(f"""<xs:complexType name="T"><xs:sequence>
  <xs:element name="x" type="xs:int" {bounds}/>
</xs:sequence></xs:complexType>""")
    return schema.component(cid("complexType", "T")).detail.content.root.children[0].occurs


@pytest.mark.parametrize("bounds, occurs", [
    ('maxOccurs="1_0"', None),
    ('minOccurs="١"', None),  # ARABIC-INDIC DIGIT ONE
    ('maxOccurs="２"', None),  # FULLWIDTH DIGIT TWO
    ('minOccurs=" 0"', None),
    ('maxOccurs="2 "', None),
    ('maxOccurs=" unbounded"', None),
    ('minOccurs="1e1"', None),
    ('minOccurs="-1"', None),
    ('maxOccurs=""', None),
    ('minOccurs="unbounded"', None),
    ('minOccurs=" 0 " maxOccurs=" unbounded "', Occurs(0, None)),
    ('minOccurs="&#9;+0&#10;" maxOccurs="&#13;&#10;007"', Occurs(0, 7)),
    ('minOccurs="-0"', Occurs(0, 1)),
], ids=lambda value: ascii(value))
def test_occurrence_bounds_follow_xsd_lexical_rules(bounds, occurs):
    """A bound is a nonNegativeInteger or ``unbounded``, trimmed of XML whitespace only."""
    if occurs is not None:
        assert _particle_occurs(bounds) == occurs
        return
    with pytest.raises(MalformedSchemaError) as info:
        _particle_occurs(bounds)
    assert str(info.value).startswith(
        "MALFORMED_SCHEMA: mem://fixture.xsd:3: bad occurrence bounds")


def test_member_types_split_on_xml_whitespace_only():
    schema = schema_of("""
  <xs:simpleType name="Mix">
    <xs:union memberTypes="&#9;xs:int&#13;&#10; xs:string "/>
  </xs:simpleType>""")
    assert schema.component(cid("simpleType", "Mix")).detail.members == \
        (builtin_type_id("int"), builtin_type_id("string"))
    with pytest.raises(MalformedSchemaError) as info:
        schema_of("""
  <xs:simpleType name="Mix">
    <xs:union memberTypes="xs:int\u00a0xs:string"/>
  </xs:simpleType>""")
    assert str(info.value) == \
        "MALFORMED_SCHEMA: mem://fixture.xsd:3: 'xs:int\u00a0xs:string' is not a QName"


def test_wildcard_namespaces_split_on_xml_whitespace_only():
    def namespaces(value):
        schema = schema_of(f"""<xs:complexType name="T"><xs:sequence>
  <xs:any namespace="{value}"/></xs:sequence></xs:complexType>""")
        (wildcard,) = [c for c in schema.components.values()
                       if c.kind is ComponentKind.WILDCARD]
        return wildcard.detail.namespaces

    assert namespaces("urn:a&#9;##local&#13;&#10; ##targetNamespace") == ("urn:a", "", TNS)
    assert namespaces("urn:a\u00a0##local") == ("urn:a\u00a0##local",)


def test_simple_type_varieties():
    schema = schema_of("""
  <xs:simpleType name="Color">
    <xs:restriction base="xs:string">
      <xs:enumeration value="red"/><xs:enumeration value="blue"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:simpleType name="Ints">
    <xs:list itemType="xs:int"/>
  </xs:simpleType>
  <xs:simpleType name="Mix">
    <xs:union memberTypes="xs:int xs:string"/>
  </xs:simpleType>""")
    color = schema.component(cid("simpleType", "Color"))
    assert ("enumeration", "red") in color.detail.facets
    ints = schema.component(cid("simpleType", "Ints"))
    assert ints.detail.item == builtin_type_id("int")
    mix = schema.component(cid("simpleType", "Mix"))
    assert builtin_type_id("int") in mix.detail.members


def test_anonymous_component_ids_are_stable():
    body = """
  <xs:element name="root">
    <xs:complexType>
      <xs:sequence><xs:element name="kid" type="xs:string"/></xs:sequence>
    </xs:complexType>
  </xs:element>"""
    s1 = schema_of(body)
    s2 = schema_of(body)
    assert set(s1.components) == set(s2.components)
    assert cid("complexType", "root/type") in s1.components
    assert cid("element", "root/type/kid") in s1.components
    kid = s1.component(cid("element", "root/type/kid"))
    assert kid.owner == cid("complexType", "root/type")


def test_element_defaults_to_head_type_then_anytype():
    schema = schema_of("""
  <xs:complexType name="HT"><xs:sequence/></xs:complexType>
  <xs:element name="head" type="tns:HT"/>
  <xs:element name="member" substitutionGroup="tns:head"/>
  <xs:element name="loose"/>""")
    member = schema.component(cid("element", "member"))
    assert member.detail.declared_type == cid("complexType", "HT")
    loose = schema.component(cid("element", "loose"))
    assert loose.detail.declared_type == builtin_type_id("anyType")


def test_unqualified_local_elements():
    text = """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
        xmlns:tns="urn:u" targetNamespace="urn:u">
  <xs:complexType name="T">
    <xs:sequence><xs:element name="bare" type="xs:string"/></xs:sequence>
  </xs:complexType>
</xs:schema>"""
    schema = load_schema_set([SchemaSource("mem://u.xsd", raw_text=text)])
    bare = schema.component("element:urn:u:T/bare")
    assert bare.detail.qname == QName("", "bare")


def _write_xsd(path, tns, body):
    head = '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"'
    if tns:
        head += f' xmlns:tns="{tns}" targetNamespace="{tns}" elementFormDefault="qualified"'
    path.write_text(f"{head}>\n{body}\n</xs:schema>")


def test_diamond_import_reads_each_file_once(tmp_path, monkeypatch):
    from slimbind import loader

    def imports(*names):
        return "\n".join(f'  <xs:import namespace="urn:{n}" schemaLocation="{n}.xsd"/>'
                         for n in names)

    _write_xsd(tmp_path / "a.xsd", "urn:a", imports("b", "c"))
    _write_xsd(tmp_path / "b.xsd", "urn:b", imports("d"))
    _write_xsd(tmp_path / "c.xsd", "urn:c", imports("d"))
    _write_xsd(tmp_path / "d.xsd", "urn:d", '  <xs:element name="leaf" type="xs:int"/>')
    reads = []
    read_tree = loader.read_tree

    def counted(source, source_name, node_class):
        reads.append(os.path.basename(source_name))
        return read_tree(source, source_name, node_class)

    monkeypatch.setattr(loader, "read_tree", counted)
    schema = load_schema_set([SchemaSource.from_file(tmp_path / n)
                              for n in ("a.xsd", "d.xsd", "c.xsd")])
    assert sorted(reads) == ["a.xsd", "b.xsd", "c.xsd", "d.xsd"]
    assert schema.lookup_global("element", QName("urn:d", "leaf")) is not None


CHAMELEON = """
  <xs:element name="box">
    <xs:complexType>
      <xs:sequence><xs:element name="item" type="xs:string" maxOccurs="3"/></xs:sequence>
      <xs:attribute name="size"><xs:simpleType>
        <xs:restriction base="xs:int"/></xs:simpleType></xs:attribute>
    </xs:complexType>
  </xs:element>
  <xs:element name="label"><xs:simpleType><xs:list itemType="xs:string"/></xs:simpleType>
  </xs:element>
  <xs:complexType name="Pair"><xs:sequence>
    <xs:element name="left"><xs:complexType><xs:sequence/></xs:complexType></xs:element>
  </xs:sequence></xs:complexType>"""


def _load_two_hosts(tmp_path, second_include):
    _write_xsd(tmp_path / "naked.xsd", "", CHAMELEON)
    _write_xsd(tmp_path / "naked2.xsd", "", CHAMELEON)
    _write_xsd(tmp_path / "host_a.xsd", "urn:a",
               '  <xs:include schemaLocation="naked.xsd"/>\n'
               '  <xs:import namespace="urn:b" schemaLocation="host_b.xsd"/>')
    _write_xsd(tmp_path / "host_b.xsd", "urn:b",
               f'  <xs:include schemaLocation="{second_include}"/>')
    return load_schema_set([SchemaSource.from_file(tmp_path / "host_a.xsd")])


def test_chameleon_included_from_two_namespaces(tmp_path):
    """One file included into two namespaces gives each its own components,
    exactly as two copies of the file do."""
    shared = _load_two_hosts(tmp_path, "naked.xsd")
    copied = _load_two_hosts(tmp_path, "naked2.xsd")
    assert {k: (c.kind, c.name, c.namespace, c.owner, c.detail)
            for k, c in shared.components.items()} == \
        {k: (c.kind, c.name, c.namespace, c.owner, c.detail)
         for k, c in copied.components.items()}
    assert set(shared.edges) == set(copied.edges)
    for ns in ("urn:a", "urn:b"):
        assert shared.component(f"element:{ns}:box").detail.declared_type == \
            f"complexType:{ns}:box/type"
        assert shared.component(f"element:{ns}:label").detail.declared_type == \
            f"simpleType:{ns}:label/type"
