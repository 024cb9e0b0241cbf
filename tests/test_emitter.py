"""Source emission: determinism, golden files, generated-parser behavior."""

from __future__ import annotations

import ast
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PO_DOC, TNS, analyze, cid, schema_of
from genutil import assert_equivalent, build_and_import, normalize, unique_model_name
from slimbind.binding import (
    _TEMPLATE_IMPORTS,
    BindingOptions,
    FieldKind,
    build_binding_model,
    serialize_binding_model,
)
from slimbind.emitter import (
    GeneratedArtifact,
    builtin_template_set,
    emit_parser_backend,
    render,
    size_report,
    write_artifacts,
)
from slimbind.errors import UnresolvedPlaceholderError
from slimbind.model import QName
from slimbind.simplify import compute_retained_set, reduction_report
from slimbind.templates import ManifestEntry, TemplateSet

GOLDEN_DIR = Path(__file__).parent / "golden"


def field_rows(source):
    """The field rows a generated class module hands to ``RecordParser``."""
    call = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "RecordParser")
    return ast.literal_eval(call.args[1])


def po_model(po_schema, options=None, name="po_golden"):
    usage = analyze(po_schema, PO_DOC)
    retained = compute_retained_set(po_schema, usage)
    return build_binding_model(po_schema, retained, usage,
                               options or BindingOptions(), model_name=name)


class TestRender:
    def test_one_artifact_per_class_plus_model_files(self, po_schema):
        model = po_model(po_schema)
        artifacts = emit_parser_backend(model)
        class_files = [a for a in artifacts if a.path.startswith("c_")]
        assert len(class_files) == len(model.classes)
        assert {a.path for a in artifacts} >= {"__init__.py", "dispatch.py"}

    def test_collapse_reduces_artifact_count(self):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="w" type="tns:W"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="W">
    <xs:sequence><xs:element name="k" type="xs:int"/></xs:sequence>
  </xs:complexType>""")
        usage = analyze(schema, f'<r xmlns="{TNS}"><w><k>1</k></w></r>')
        retained = compute_retained_set(schema, usage)
        on = emit_parser_backend(build_binding_model(
            schema, retained, usage, BindingOptions(), model_name="m"))
        off = emit_parser_backend(build_binding_model(
            schema, retained, usage,
            BindingOptions(collapse_single_child=False), model_name="m"))
        assert len(off) - len(on) == 1  # the W wrapper class file

    def test_unresolved_placeholder_in_custom_template(self, po_schema):
        model = po_model(po_schema)
        templates = TemplateSet(
            templates={"bad.tpl": "class {{not_a_key}}"},
            manifest=[ManifestEntry("bad.tpl", "out.py", "model")])
        with pytest.raises(UnresolvedPlaceholderError) as err:
            render(model, templates)
        assert "not_a_key" in str(err.value)

    def test_custom_per_class_template(self, po_schema):
        model = po_model(po_schema)
        templates = TemplateSet(
            templates={"list.tpl": "{{name}} <- {{xml_type}}\n"},
            manifest=[ManifestEntry("list.tpl", "{{module}}.txt", "class")])
        artifacts = render(model, templates)
        assert len(artifacts) == len(model.classes)
        assert artifacts[0].content.endswith("\n")

    def test_each_distinct_template_compiles_once(self, po_schema, monkeypatch):
        from slimbind import emitter, templates as engine
        compiled = []
        original = engine.compile_template
        for module in (engine, emitter):
            monkeypatch.setattr(module, "compile_template",
                                lambda name, text: compiled.append(text) or original(name, text))
        model = po_model(po_schema)
        template_set = builtin_template_set()
        artifacts = render(model, template_set)
        assert len(model.classes) == 2 and len(artifacts) == 4
        distinct = {template_set.templates[e.template] for e in template_set.manifest} | \
            {e.path_pattern for e in template_set.manifest}
        assert sorted(compiled) == sorted(distinct)

    def test_byte_identical_across_runs(self, po_schema):
        a1 = emit_parser_backend(po_model(po_schema))
        a2 = emit_parser_backend(po_model(po_schema))
        assert [(a.path, a.content) for a in a1] == \
            [(a.path, a.content) for a in a2]


class TestSizeReport:
    def test_empty_total_zero(self):
        total, rows = size_report([])
        assert total == 0 and rows == []

    def test_sorted_descending(self):
        arts = [GeneratedArtifact("a.py", "x" * 10),
                GeneratedArtifact("b.py", "y" * 30)]
        total, rows = size_report(arts)
        assert total == 40
        assert rows[0] == (30, "b.py")

    def test_size_monotone_in_class_count(self, po_schema):
        """Removing classes from the model never grows total emitted bytes."""
        usage = analyze(po_schema, PO_DOC)
        retained = compute_retained_set(po_schema, usage)
        small = build_binding_model(po_schema, retained, usage, BindingOptions(),
                                    model_name="m")
        big = build_binding_model(po_schema, set(po_schema.components), usage,
                                  BindingOptions(prune_unused=False),
                                  model_name="m")
        assert {c.name for c in small.classes} <= {c.name for c in big.classes}
        assert size_report(emit_parser_backend(small))[0] <= \
            size_report(emit_parser_backend(big))[0]

    def test_pruned_model_smaller_than_unpruned(self, po_schema):
        usage = analyze(po_schema, PO_DOC)
        retained = compute_retained_set(po_schema, usage)
        pruned = emit_parser_backend(build_binding_model(
            po_schema, retained, usage, BindingOptions(), model_name="m"))
        unpruned = emit_parser_backend(build_binding_model(
            po_schema, set(po_schema.components), usage,
            BindingOptions(flatten_inheritance=False, collapse_single_child=False,
                           tighten_occurrences=False, bound_substitutions=False,
                           prune_unused=False), model_name="m"))
        assert size_report(pruned)[0] < size_report(unpruned)[0]


class TestGolden:
    """Frozen generated sources and JSON reports; regenerate with tests/golden/refresh.py."""

    def build(self):
        """(schema, usage report, retained set, binding model) of the cart fixture."""
        schema = schema_of("""
  <xs:element name="cart" type="tns:CartType"/>
  <xs:complexType name="CartType">
    <xs:sequence>
      <xs:element name="sku" type="xs:string" maxOccurs="unbounded"/>
      <xs:element name="coupon" type="xs:string" minOccurs="0"/>
      <xs:element ref="tns:pay" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="PayType">
    <xs:sequence><xs:element name="amount" type="xs:decimal"/></xs:sequence>
  </xs:complexType>
  <xs:element name="pay" type="tns:PayType"/>
  <xs:element name="card" type="tns:PayType" substitutionGroup="tns:pay"/>
  <xs:element name="cash" type="tns:PayType" substitutionGroup="tns:pay"/>""")
        doc = (f'<cart xmlns="{TNS}"><sku>a</sku><sku>b</sku>'
               '<coupon>c1</coupon>'
               '<card><amount>5.00</amount></card>'
               '<cash><amount>1.00</amount></cash></cart>')
        usage = analyze(schema, doc)
        retained = compute_retained_set(schema, usage)
        model = build_binding_model(schema, retained, usage, BindingOptions(),
                                    model_name="golden")
        return schema, usage, retained, model

    def artifacts(self):
        return emit_parser_backend(self.build()[3])

    def golden_outputs(self):
        """Name -> content of every file pinned under tests/golden."""
        schema, usage, retained, model = self.build()
        outputs = {a.path: a.content for a in emit_parser_backend(model)
                   if a.path in ("c_carttype.py", "dispatch.py")}
        outputs["usage-report.json"] = usage.to_json()
        outputs["reduction-report.json"] = reduction_report(schema, retained).to_json()
        outputs["binding-model.json"] = serialize_binding_model(model)
        return outputs

    @pytest.mark.parametrize("path", ["c_carttype.py", "dispatch.py", "usage-report.json",
                                      "reduction-report.json", "binding-model.json"])
    def test_matches_golden(self, path):
        golden_path = GOLDEN_DIR / (path + ".golden")
        assert golden_path.exists(), f"golden file missing: run refresh.py"
        assert self.golden_outputs()[path] == golden_path.read_bytes().decode(), (
            f"{path} drifted from the golden copy; inspect and refresh if intended")

    def test_golden_list_and_optional_shapes(self):
        artifacts = {a.path: a.content for a in self.artifacts()}
        rows = {row[1]: row for row in field_rows(artifacts["c_carttype.py"])}
        assert rows["sku"][2] == "*"  # LIST accumulates
        assert rows["coupon"][2] == "?"  # SCALAR_OPTIONAL single slot
        dispatch = artifacts["dispatch.py"]
        assert f"('{TNS}', 'card')" in dispatch
        assert f"('{TNS}', 'cash')" in dispatch
        assert f"('{TNS}', 'pay')" not in dispatch  # head unobserved: bounded out


class TestGeneratedParsers:
    def test_empty_type_root_generates_minimal_parser(self, tmp_path):
        schema = schema_of("""
  <xs:element name="ping" type="tns:PingType"/>
  <xs:complexType name="PingType"><xs:sequence/></xs:complexType>""")
        docs = [f'<ping xmlns="{TNS}"/>']
        model, module, _, artifacts = build_and_import(schema, docs, tmp_path)
        assert_equivalent(model, module, docs)
        obj, warnings = module.parse_document(docs[0])
        assert normalize(obj) == {}
        by_path = {a.path: a.content for a in artifacts}
        assert field_rows(by_path["c_pingtype.py"]) == ()
        # The class parser only consumes events up to its end tag.
        obj, warnings = module.parse_document(f'<ping xmlns="{TNS}"><x/></ping>',
                                              mode="lenient")
        assert normalize(obj) == {} and [w.code for w in warnings] == ["UNKNOWN_ELEMENT"]
        assert "def parse_document" in by_path["dispatch.py"]

    def test_type_named_like_a_class_template_import(self, tmp_path):
        schema = schema_of("""
  <xs:element name="r" type="tns:RecordParser"/>
  <xs:complexType name="RecordParser">
    <xs:sequence><xs:element name="v" type="xs:int"/></xs:sequence>
  </xs:complexType>""")
        docs = [f'<r xmlns="{TNS}"><v>1</v></r>']
        model, module, _, _ = build_and_import(schema, docs, tmp_path)
        assert_equivalent(model, module, docs)
        assert normalize(module.parse_document(docs[0])[0]) == {"v": 1}
        template = builtin_template_set().templates["class.py"]
        imported = {name.split(" as ")[-1]
                    for names in re.findall(r"^from [^{\n]+ import (.+)$", template, re.M)
                    for name in names.split(", ")}
        assert imported == set(_TEMPLATE_IMPORTS)

    def test_missing_required_wildcard_reported_after_elements(self, tmp_path):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:element name="x" type="xs:string"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:any namespace="##targetNamespace"/>
      <xs:element name="b" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>""")
        corpus = [f'<r xmlns="{TNS}"><x>1</x><b>2</b></r>']
        model, module, _, _ = build_and_import(schema, corpus, tmp_path)
        empty = [f'<r xmlns="{TNS}"/>']
        assert_equivalent(model, module, corpus + empty, mode="lenient")
        _obj, warnings = module.parse_document(empty[0], mode="lenient")
        assert [w.message for w in warnings] == [
            "missing required element b in R", "missing required element any in R"]

    def test_po_equivalence(self, po_schema, tmp_path):
        docs = [PO_DOC, f'<po xmlns="{TNS}" id="2"><note>n</note></po>',
                f'<memo xmlns="{TNS}">hi there</memo>']
        model, module, usage, _ = build_and_import(po_schema, docs, tmp_path)
        assert_equivalent(model, module, docs)

    def test_value_conversions(self, po_schema, tmp_path):
        model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
        obj, warnings = module.parse_document(PO_DOC)
        from decimal import Decimal
        assert obj.id == 7
        assert obj.item[0].price == Decimal("9.99")
        assert obj.item[0].qty == 2
        assert obj.item[1].qty is None
        assert obj.note == "rush order"
        assert warnings == []

    def test_dispatch_and_xsi(self, tmp_path):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element ref="tns:h" maxOccurs="unbounded"/>
      <xs:element name="v" type="tns:B" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="HT">
    <xs:sequence><xs:element name="hx" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:element name="h" type="tns:HT"/>
  <xs:element name="m1" type="tns:HT" substitutionGroup="tns:h"/>
  <xs:element name="m2" type="tns:HT" substitutionGroup="tns:m1"/>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="bx" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B">
      <xs:sequence><xs:element name="dy" type="xs:int"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>""")
        docs = [
            (f'<r xmlns="{TNS}" xmlns:tns="{TNS}" '
             'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
             '<h><hx>1</hx></h><m1/><m2><hx>3</hx></m2>'
             '<v xsi:type="tns:D"><bx>1</bx><dy>2</dy></v></r>'),
        ]
        model, module, _, _ = build_and_import(schema, docs, tmp_path)
        assert_equivalent(model, module, docs)
        obj, _ = module.parse_document(docs[0])
        assert len(obj.h) == 3
        assert normalize(obj.v) == {"bx": 1, "dy": 2}

    def test_mixed_content(self, tmp_path):
        schema = schema_of("""
  <xs:element name="p" type="tns:P"/>
  <xs:complexType name="P" mixed="true">
    <xs:sequence><xs:element name="b" type="xs:string" minOccurs="0"
        maxOccurs="unbounded"/></xs:sequence>
  </xs:complexType>""")
        docs = [f'<p xmlns="{TNS}">one <b>two</b> three<b>four</b></p>']
        model, module, _, _ = build_and_import(schema, docs, tmp_path)
        assert_equivalent(model, module, docs)
        obj, _ = module.parse_document(docs[0])
        assert obj.text == "one  three"  # text runs concatenated, order not kept
        assert obj.b == ["two", "four"]

    def test_nillable(self, tmp_path):
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element name="v" type="xs:int" nillable="true"/></xs:sequence>
  </xs:complexType>""")
        docs = [(f'<r xmlns="{TNS}" '
                 'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
                 '<v xsi:nil="true"/></r>')]
        model, module, _, _ = build_and_import(schema, docs, tmp_path)
        assert_equivalent(model, module, docs)
        obj, _ = module.parse_document(docs[0])
        assert obj.v is None

    def test_unflattened_inheritance(self, tmp_path):
        schema = schema_of("""
  <xs:element name="r" type="tns:D"/>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="b" type="xs:string"/></xs:sequence>
    <xs:attribute name="ba" type="xs:int"/>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B">
      <xs:sequence><xs:element name="d" type="xs:int"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>""")
        docs = [f'<r xmlns="{TNS}" ba="3"><b>x</b><d>9</d></r>']
        model, module, _, _ = build_and_import(
            schema, docs, tmp_path, BindingOptions(flatten_inheritance=False))
        assert_equivalent(model, module, docs)
        obj, _ = module.parse_document(docs[0])
        assert (obj.b, obj.d, obj.ba) == ("x", 9, 3)
        gen_dir = Path(obj.__class__.__module__.split(".")[0])
        assert obj.__class__.__name__ == "D"
        assert obj.__class__.__mro__[1].__name__ == "B"

    def test_ignored_field_skips_without_building(self, po_schema, tmp_path):
        opts = BindingOptions(ignore_paths=(
            (QName(TNS, "po"), QName(TNS, "item")),))
        model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path, opts)
        import importlib
        item_mod = importlib.import_module(f"{model.name}.c_itemtype")
        calls = []
        original = item_mod.ItemType.__init__
        item_mod.ItemType.__init__ = lambda self: calls.append(1) or original(self)
        try:
            assert calls == [] and item_mod.ItemType() is not None and calls == [1]
            calls.clear()
            obj, warnings = module.parse_document(PO_DOC)
        finally:
            item_mod.ItemType.__init__ = original
        assert calls == []  # ignored subtrees never construct binding objects
        assert obj.item == []
        assert obj.note == "rush order"
        assert warnings == []

    def test_ignored_substitution_group_field(self, tmp_path):
        schema = schema_of("""
  <xs:element name="cart" type="tns:Cart"/>
  <xs:complexType name="Cart">
    <xs:sequence>
      <xs:element ref="tns:pay" maxOccurs="unbounded"/>
      <xs:element name="note" type="xs:string" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="PayT">
    <xs:sequence><xs:element name="amount" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:element name="pay" type="tns:PayT"/>
  <xs:element name="card" type="tns:PayT" substitutionGroup="tns:pay"/>
  <xs:element name="cash" type="tns:PayT" substitutionGroup="tns:pay"/>""")
        docs = [f'<cart xmlns="{TNS}"><card><amount>1</amount></card>'
                '<cash><amount>2</amount></cash><pay/><note>n</note></cart>']
        opts = BindingOptions(ignore_paths=((QName(TNS, "cart"), QName(TNS, "pay")),))
        model, module, _, _ = build_and_import(schema, docs, tmp_path, opts)
        (pay,) = [f for c in model.classes for f in c.fields if f.name == "pay"]
        assert pay.ignored and len({e.qname for e in pay.dispatch}) >= 3
        assert_equivalent(model, module, docs)
        obj, warnings = module.parse_document(docs[0])
        assert (obj.pay, obj.note, warnings) == ([], "n", [])

    def test_lenient_vs_strict_on_generated(self, po_schema, tmp_path):
        model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
        bad = PO_DOC.replace('<name>widget</name>', '<name>w</name><rogue/>')
        from slimbind.errors import UnknownElementError
        with pytest.raises(UnknownElementError):
            module.parse_document(bad)
        obj, warnings = module.parse_document(bad, mode="lenient")
        assert len(warnings) == 1
        assert obj.item[0].name == "w"


def shared_head_model(k):
    """Root R holding K wrapper types, each with a field on substitution head h."""
    wrappers = "".join(f"""
  <xs:complexType name="C{i}">
    <xs:sequence><xs:element ref="tns:h" maxOccurs="unbounded"/></xs:sequence>
  </xs:complexType>""" for i in range(k))
    schema = schema_of(f"""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>{"".join(f'<xs:element name="c{i}" type="tns:C{i}"/>' for i in range(k))}
    </xs:sequence>
  </xs:complexType>{wrappers}
  <xs:complexType name="HT">
    <xs:sequence><xs:element name="hx" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:element name="h" type="tns:HT"/>
  <xs:element name="m1" type="tns:HT" substitutionGroup="tns:h"/>
  <xs:element name="m2" type="xs:string" substitutionGroup="tns:h"/>""")
    body = "".join(f"<c{i}><m1><hx>{i}</hx></m1><m2>s{i}</m2></c{i}>" for i in range(k))
    return schema, [f'<r xmlns="{TNS}">{body}</r>']


class TestSharedDispatchTables:
    def test_fields_on_one_head_share_one_table(self, tmp_path):
        sources = {}
        for k in (1, 8):
            schema, docs = shared_head_model(k)
            model, module, _, artifacts = build_and_import(schema, docs, tmp_path / str(k))
            assert_equivalent(model, module, docs)
            by_path = {a.path: a.content for a in artifacts}
            dispatch = by_path["dispatch.py"]
            assert re.findall(r"^(_D\d+) = \{$", dispatch, re.M) == ["_D0"]
            assert "def " not in dispatch.split("def parse_document")[0]
            for i in range(k):
                # The field matches and reads through the shared table.
                assert field_rows(by_path[f"c_c{i}.py"]) == (("_D0", "h", "*", "dispatch", "h"),)
            sources[k] = dispatch
        added = set(sources[8].splitlines()) - set(sources[1].splitlines())
        removed = set(sources[1].splitlines()) - set(sources[8].splitlines())
        # Seven more class modules to import and bind; not one line of dispatch.
        assert removed == set()
        assert added == {f"from . import c_c{i}" for i in range(1, 8)} | \
            {f"    c_c{i}," for i in range(1, 8)}


RECURSIVE_CASES = {
    "self": ("""
  <xs:element name="node" type="tns:Node"/>
  <xs:complexType name="Node">
    <xs:sequence>
      <xs:element name="label" type="xs:string"/>
      <xs:element name="node" type="tns:Node" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>""",
        "<node><label>a</label><node><label>b</label><node><label>c</label>"
        "</node></node><node><label>d</label></node></node>",
        BindingOptions()),
    "mutual, through a dispatch table": ("""
  <xs:element name="a" type="tns:A"/>
  <xs:complexType name="A">
    <xs:sequence>
      <xs:element name="b" type="tns:B" minOccurs="0"/>
      <xs:element ref="tns:h" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="a" type="tns:A" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:element name="h" type="tns:B"/>
  <xs:element name="hb" type="tns:B" substitutionGroup="tns:h"/>""",
        "<a><b><a><h><a/></h></a></b><hb><a><b/></a></hb></a>",
        BindingOptions()),
    "base holding its derived type": ("""
  <xs:element name="r" type="tns:B"/>
  <xs:complexType name="B">
    <xs:sequence>
      <xs:element name="v" type="xs:int"/>
      <xs:element name="d" type="tns:D" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B">
      <xs:sequence><xs:element name="w" type="xs:string"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>""",
        "<r><v>1</v><d><v>2</v><d><v>3</v><w>z</w></d><w>y</w></d></r>",
        BindingOptions(flatten_inheritance=False)),
}


class TestLateBoundParsers:
    """Class modules bind their child parsers once, in any import order."""

    @pytest.mark.parametrize("case, first", [
        ("self", "c_node"),
        ("mutual, through a dispatch table", "c_a"),
        ("mutual, through a dispatch table", "c_b"),
        ("base holding its derived type", "c_b"),
        ("base holding its derived type", "c_d"),
    ])
    def test_class_module_imported_before_package(self, case, first, tmp_path):
        import importlib
        import sys
        body, doc, options = RECURSIVE_CASES[case]
        schema = schema_of(body)
        doc = doc.replace(">", f' xmlns="{TNS}">', 1)
        usage = analyze(schema, doc)
        model = build_binding_model(schema, compute_retained_set(schema, usage), usage,
                                    options, model_name=unique_model_name("late"))
        write_artifacts(model, emit_parser_backend(model), tmp_path)
        sys.path.insert(0, str(tmp_path / "gen"))
        try:
            importlib.import_module(f"{model.name}.{first}")
            package = importlib.import_module(model.name)
        finally:
            sys.path.remove(str(tmp_path / "gen"))
        assert_equivalent(model, package, [doc])


class TestManifest:
    def test_manifest_entries_and_hashes(self, po_schema, tmp_path):
        model = po_model(po_schema, name=unique_model_name())
        artifacts = emit_parser_backend(model)
        manifest = write_artifacts(model, artifacts, tmp_path)
        gen_dir = tmp_path / "gen" / model.name
        data = json.loads((gen_dir / "MANIFEST.json").read_text())
        assert data == manifest
        assert data["classCount"] == len(model.classes)
        assert data["totalBytes"] == sum(a.byte_size for a in artifacts)
        for entry in data["artifacts"]:
            blob = (gen_dir / entry["path"]).read_bytes()
            assert len(blob) == entry["bytes"]
            import hashlib
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]

    def test_no_references_outside_retained(self, po_schema):
        """Every name matched by generated code maps to a retained component."""
        usage = analyze(po_schema, PO_DOC)
        retained = compute_retained_set(po_schema, usage)
        model = build_binding_model(po_schema, retained, usage, BindingOptions(),
                                    model_name="scan")
        artifacts = emit_parser_backend(model)
        retained_qnames = set()
        for comp_id in retained:
            comp = po_schema.component(comp_id)
            qn = comp.name or getattr(comp.detail, "qname", None)
            if qn is not None:
                retained_qnames.add((qn.namespace, qn.local))
        for cls in model.classes:
            assert cls.source_type in retained
        tuple_re = re.compile(r"(?:_a?n == |^    \(?)\('([^']*)', '([^']*)'\)", re.M)
        found = set()
        for artifact in artifacts:
            for ns, local in tuple_re.findall(artifact.content):
                assert (ns, local) in retained_qnames, (artifact.path, ns, local)
                found.add((ns, local))
        # The scan must see every name an element or attribute field matches;
        # otherwise a change in the generated shape would pass it vacuously.
        for cls in model.classes:
            for f in cls.fields:
                if f.kind is FieldKind.TEXT_CONTENT:
                    continue
                names = [e.qname for e in f.dispatch if e.via == "element"] or [f.xml_name]
                for qn in names:
                    assert (qn.namespace, qn.local) in found, (cls.name, f.name, qn)


# ---------------------------------------------------------------- invalid input

XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"


@pytest.fixture(scope="module")
def synth_models(tmp_path_factory):
    """Compiled synthetic cases: (model, package, valid documents)."""
    from synth import generate_case
    from slimbind.analyzer import analyze_corpus
    from slimbind.loader import SchemaSource, load_schema_set
    from genutil import compile_model
    tmp = tmp_path_factory.mktemp("invalid")
    cases = []
    for seed in range(30_000, 30_016):
        _g, xsd, docs = generate_case(seed)
        schema = load_schema_set([SchemaSource("mem://i.xsd", raw_text=xsd)])
        usage = analyze_corpus(schema, [(f"{i}", d) for i, d in enumerate(docs)])
        if usage.failures or not usage.root_elements:
            continue
        options = BindingOptions() if seed % 2 else \
            BindingOptions(flatten_inheritance=False, collapse_single_child=False)
        model = build_binding_model(schema, compute_retained_set(schema, usage), usage,
                                    options, model_name=unique_model_name("inv"))
        module, _ = compile_model(model, tmp)
        cases.append((model, module, docs))
    assert len(cases) >= 10
    return cases


def _element_spans(lines):
    """(first, last) line of each element; synth documents put a tag per line."""
    spans = []
    for i, line in enumerate(lines):
        body = line.lstrip()
        if not body.startswith("<") or body.startswith("</"):
            continue
        if "</" in body or body.endswith("/>"):
            spans.append((i, i))
            continue
        pad = line[:len(line) - len(body)]
        close = next(j for j in range(i + 1, len(lines))
                     if lines[j].startswith(pad + "</"))
        spans.append((i, close))
    return spans


def mutate(doc, edits):
    """Apply ``(operation, pick)`` edits to a synthetic document, in order.

    Each edit keeps the document well formed and never touches the root's
    own tag, so every result still starts at a known root element.
    """
    lines = doc.split("\n")
    for op, pick in edits:
        spans = _element_spans(lines)[1:]  # never the root
        if not spans:
            break
        first, last = spans[pick % len(spans)]
        if op == "drop":
            del lines[first:last + 1]
        elif op == "repeat":
            lines[last + 1:last + 1] = lines[first:last + 1]
        elif op == "undeclared":
            lines.insert(first, "<undeclared>1</undeclared>")
        elif op == "text":
            lines.insert(first, "stray text")
        elif op == "nil":
            head, sep, rest = lines[first].partition(">")
            lines[first] = f'{head} xmlns:xn="{XSI_NS}" xn:nil="true"{sep}{rest}'
        elif op == "drop-attribute":
            lines[first] = re.sub(r' a\d+="[^"]*"', "", lines[first], count=1)
        elif op == "bad-value":
            lines[first] = re.sub(r">[^<]*</", ">not a value!</", lines[first], count=1)
    return "\n".join(lines)


EDIT = st.tuples(st.sampled_from(["drop", "repeat", "undeclared", "text", "nil",
                                  "drop-attribute", "bad-value"]),
                 st.integers(min_value=0, max_value=10_000))


def _outcome(parse, doc, mode):
    from slimbind.errors import SlimbindError
    try:
        obj, warnings = parse(doc, mode=mode, source_name="m.xml")
    except SlimbindError as exc:
        return type(exc).__name__, str(exc), exc.info.get("line"), exc.info.get("col")
    return "ok", normalize(obj), [w.format() for w in warnings]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_parser_equals_oracle_on_invalid_input(synth_models, data):
    """Mutated documents: the same object, warnings, or error as the oracle."""
    from oracle import Interpreter
    model, module, docs = data.draw(st.sampled_from(synth_models))
    doc = mutate(data.draw(st.sampled_from(docs)),
                 data.draw(st.lists(EDIT, min_size=1, max_size=4)))
    oracle = Interpreter(model)
    for mode in ("lenient", "strict"):
        assert _outcome(module.parse_document, doc, mode) == \
            _outcome(oracle.parse_document, doc, mode), mode
