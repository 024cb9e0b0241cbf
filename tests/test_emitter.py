"""Source emission: determinism, golden files, generated-parser behavior."""

from __future__ import annotations

import ast
import gc
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PO_DOC, TNS, analyze, cid, schema_of
from genutil import assert_equivalent, build_and_import, normalize, unique_model_name
from slimbind.binding import (
    _RECORD_ATTRIBUTES,
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
from slimbind import runtime
from slimbind.runtime import Record
from slimbind.simplify import compute_retained_set, reduction_report
from slimbind.templates import ManifestEntry, TemplateSet

GOLDEN_DIR = Path(__file__).parent / "golden"


def field_rows(source, name):
    """The field rows a generated package hands to the ``RecordParser`` of class ``name``."""
    call = next(node.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and node.targets[0].id == f"parse_{name}")
    return ast.literal_eval(call.args[1])


def class_names(source):
    """The classes a generated package defines, in order."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]


def po_model(po_schema, options=None, name="po_golden"):
    usage = analyze(po_schema, PO_DOC)
    retained = compute_retained_set(po_schema, usage)
    return build_binding_model(po_schema, retained, usage,
                               options or BindingOptions(), model_name=name)


class TestRender:
    def test_one_artifact_per_class_plus_model_files(self, po_schema):
        """One module holds a record class and a record parser per class."""
        model = po_model(po_schema)
        (package,) = emit_parser_backend(model)
        assert package.path == "__init__.py"
        names = sorted(c.name for c in model.classes)
        assert class_names(package.content) == names
        for name in names:
            assert field_rows(package.content, name)
        # The package imports the runtime and nothing of its own.
        assert re.findall(r"^(?:from|import) \S+", package.content, re.M) == \
            ["from slimbind.runtime"]

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
        (on,) = emit_parser_backend(build_binding_model(
            schema, retained, usage, BindingOptions(), model_name="m"))
        (off,) = emit_parser_backend(build_binding_model(
            schema, retained, usage,
            BindingOptions(collapse_single_child=False), model_name="m"))
        assert class_names(off.content) == ["R", "W"]
        assert class_names(on.content) == ["R"]  # the W wrapper class is gone
        assert "parse_W" not in on.content and on.byte_size < off.byte_size

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
        # A per-class entry twice: its text and path compile once for every class.
        template_set.templates["list.tpl"] = "{{name}}\n"
        template_set.manifest += [ManifestEntry("list.tpl", "{{module}}.txt", "class"),
                                  ManifestEntry("list.tpl", "{{module}}.list", "class")]
        artifacts = render(model, template_set)
        assert len(model.classes) == 2 and len(artifacts) == 5
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


def module_section(source, start, end):
    """The lines of `source` from the one starting with `start` up to the one
    starting with `end` (exclusive; None runs to the end)."""
    lines = source.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith(start))
    last = len(lines) if end is None else next(
        i for i, line in enumerate(lines) if i > first and line.startswith(end))
    return "".join(lines[first:last])


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
        """Name -> content of every file pinned under tests/golden.

        Besides the whole package module, the CartType class with its row
        table and the dispatch section (tables, root table, parse_document)
        are pinned on their own, under the names of the per-class and
        dispatch modules they were emitted as before the one-module package,
        so a drift is reported against the section that moved.
        """
        schema, usage, retained, model = self.build()
        outputs = {a.path: a.content for a in emit_parser_backend(model)}
        module = outputs["__init__.py"]
        outputs["c_carttype.py"] = module_section(module, "class CartType(", "class PayType(")
        outputs["dispatch.py"] = module_section(module, "# Dispatch tables", None)
        outputs["usage-report.json"] = usage.to_json()
        outputs["reduction-report.json"] = reduction_report(schema, retained).to_json()
        outputs["binding-model.json"] = serialize_binding_model(model)
        return outputs

    @pytest.mark.parametrize("path", ["__init__.py", "c_carttype.py", "dispatch.py",
                                      "usage-report.json", "reduction-report.json",
                                      "binding-model.json"])
    def test_matches_golden(self, path):
        golden_path = GOLDEN_DIR / (path + ".golden")
        assert golden_path.exists(), f"golden file missing: run refresh.py"
        assert self.golden_outputs()[path] == golden_path.read_bytes().decode(), (
            f"{path} drifted from the golden copy; inspect and refresh if intended")

    def test_golden_list_and_optional_shapes(self):
        artifacts = {a.path: a.content for a in self.artifacts()}
        source = artifacts["__init__.py"]
        rows = {row[1]: row for row in field_rows(source, "CartType")}
        assert rows["sku"][2] == "*"  # LIST accumulates
        assert rows["coupon"][2] == "?"  # SCALAR_OPTIONAL single slot
        assert f"('{TNS}', 'card')" in source
        assert f"('{TNS}', 'cash')" in source
        assert f"('{TNS}', 'pay')" not in source  # head unobserved: bounded out


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
        assert field_rows(by_path["__init__.py"], "PingType") == ()
        # The class parser only consumes events up to its end tag.
        obj, warnings = module.parse_document(f'<ping xmlns="{TNS}"><x/></ping>',
                                              mode="lenient")
        assert normalize(obj) == {} and [w.code for w in warnings] == ["UNKNOWN_ELEMENT"]
        assert "def parse_document" in by_path["__init__.py"]

    @pytest.mark.parametrize("type_name, element, slot", [
        ("RecordParser", "e", "e"),
        ("_D0", "e", "e"),
        ("_ROOTS", "e", "e"),
        ("R", "_dc_field", "_dc_field"),
        ("R", "__x", "x__x"),
        *(("R", name, f"{name}_2") for name in _RECORD_ATTRIBUTES),
    ], ids=lambda value: value)
    def test_type_named_like_a_class_template_import(self, tmp_path, type_name, element,
                                                    slot):
        """Class and field names that clash with generated code still bind.

        The head ``h`` gets the dispatch table ``_D0``.
        """
        schema = schema_of(f"""
  <xs:element name="r" type="tns:{type_name}"/>
  <xs:complexType name="{type_name}">
    <xs:sequence>
      <xs:element name="{element}" type="xs:string"/>
      <xs:element name="v" type="xs:int" maxOccurs="unbounded"/>
      <xs:element ref="tns:h"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="h" type="xs:string"/>
  <xs:element name="m" type="xs:string" substitutionGroup="tns:h"/>""")
        docs = [f'<r xmlns="{TNS}"><{element}>a</{element}><v>1</v><v>2</v><m>b</m></r>']
        model, module, _, artifacts = build_and_import(schema, docs, tmp_path)
        assert_equivalent(model, module, docs)
        obj = module.parse_document(docs[0])[0]
        assert normalize(obj) == {slot: "a", "v": [1, 2], "h": "b"}
        assert getattr(module, type(obj).__name__) is type(obj)
        assert "_D0 = {" in artifacts[0].content
        # A class name starts with a capital, so it can only take the
        # capitalized names the package imports, which binding reserves.
        template = builtin_template_set().templates["package.py"]
        (line,) = re.findall(r"^from .+$", template, re.M)
        assert re.findall(r"\b[A-Z]\w*", line) == list(_TEMPLATE_IMPORTS)
        assert all(name[0].isupper() for name in class_names(artifacts[0].content))

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
            "missing required element b in R",
            "missing required element matching xs:any in R"]

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
        # xsi:nil is a boolean, so its whitespace collapses.
        docs = [(f'<r xmlns="{TNS}" '
                 'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
                 f'<v xsi:nil="{nil}"/></r>') for nil in ("true", " true ", "1 ")]
        model, module, _, _ = build_and_import(schema, docs[:1], tmp_path)
        assert_equivalent(model, module, docs)
        for doc in docs:
            obj, warnings = module.parse_document(doc)
            assert obj.v is None and warnings == []

    def test_unflattened_inheritance(self, tmp_path):
        schema = schema_of("""
  <xs:element name="r" type="tns:D"/>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="b" type="xs:string"/></xs:sequence>
    <xs:attribute name="ba" type="xs:int"/>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B">
      <xs:sequence>
        <xs:element name="d" type="xs:int"/>
        <xs:element name="e" type="xs:string" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>""")
        docs = [f'<r xmlns="{TNS}" ba="3"><b>x</b><d>9</d><e>1</e><e>2</e></r>']
        model, module, _, artifacts = build_and_import(
            schema, docs, tmp_path, BindingOptions(flatten_inheritance=False))
        assert_equivalent(model, module, docs)
        obj, _ = module.parse_document(docs[0])
        assert (obj.b, obj.d, obj.ba, obj.e) == ("x", 9, 3, ["1", "2"])
        D = obj.__class__
        B = D.__mro__[1]
        assert (D.__name__, B.__name__, B.__bases__) == ("D", "B", (Record,))
        # Plain slotted records: each class declares only its own fields.
        assert not hasattr(obj, "__dict__") and not hasattr(B(), "__dict__")
        assert D.__slots__ == ("d", "e") and B.__slots__ == ("b", "ba")
        assert repr(D()) == "D(b=None, ba=None, d=None, e=[])"
        assert D().e is not D().e
        assert D(d=1) == D(d=1) != D(d=2) and D() != B()
        assert not any("dataclass" in a.content for a in artifacts)

    def test_ignored_field_skips_without_building(self, po_schema, tmp_path, monkeypatch):
        opts = BindingOptions(ignore_paths=(
            (QName(TNS, "po"), QName(TNS, "item")),))
        model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path, opts)
        built = Counter()  # class name -> records made

        def counting_new(cls):
            built[cls.__name__] += 1
            return object.__new__(cls)

        monkeypatch.setattr(runtime, "_new", counting_new)
        _model, plain, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
        plain.parse_document(PO_DOC)
        assert built == {"POType": 1, "ItemType": 2}  # the spy sees every record
        built.clear()
        obj, warnings = module.parse_document(PO_DOC)
        # Ignored subtrees never construct binding objects.
        assert built == {"POType": 1}
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
            (package,) = artifacts
            source = package.content
            assert re.findall(r"^(_D\d+) = \{$", source, re.M) == ["_D0"]
            assert "def " not in source.split("def parse_document")[0]
            for i in range(k):
                # The field matches and reads through the shared table.
                assert field_rows(source, f"C{i}") == (("_D0", "h", "*", "dispatch", "h"),)
            sources[k] = source.split("# Dispatch tables")[1]
        # Seven more classes; not one line more of dispatch.
        assert sources[8] == sources[1]


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
    """Record parsers bind once the package has defined them all."""

    @pytest.mark.parametrize("case", RECURSIVE_CASES)
    def test_recursive_types_bind_in_one_module(self, case, tmp_path):
        body, doc, options = RECURSIVE_CASES[case]
        schema = schema_of(body)
        doc = doc.replace(">", f' xmlns="{TNS}">', 1)
        model, package, _, _ = build_and_import(schema, [doc], tmp_path, options)
        # Each parser was bound at import, before its first parse.
        assert all(getattr(package, f"parse_{c.name}").elements for c in model.classes)
        assert_equivalent(model, package, [doc])

    def test_derived_class_sorting_before_its_base(self, tmp_path):
        """Without flattening a class is defined after its base, whatever the names."""
        schema = schema_of("""
  <xs:element name="r" type="tns:Alpha"/>
  <xs:complexType name="Zed">
    <xs:sequence><xs:element name="z" type="xs:int"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="Alpha">
    <xs:complexContent><xs:extension base="tns:Zed">
      <xs:sequence><xs:element name="a" type="xs:string"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>
  <xs:complexType name="Mid">
    <xs:sequence><xs:element name="m" type="xs:string"/></xs:sequence>
  </xs:complexType>""")
        docs = [f'<r xmlns="{TNS}"><z>1</z><a>x</a></r>']
        model, package, _, artifacts = build_and_import(
            schema, docs, tmp_path,
            BindingOptions(flatten_inheritance=False, prune_unused=False),
            retained=set(schema.components))
        assert [c.name for c in model.classes] == ["Alpha", "Mid", "Zed"]
        assert class_names(artifacts[0].content) == ["Zed", "Alpha", "Mid"]
        assert package.Alpha.__bases__ == (package.Zed,)
        assert_equivalent(model, package, docs)


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


BREAK = st.tuples(st.sampled_from(["truncate", "stray <"]),
                  st.integers(min_value=0, max_value=10_000))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_parser_equals_oracle_on_malformed_input(synth_models, data):
    """Cut or broken documents: the same error, or object and warnings, as the oracle.

    Edits first put violations before the break, so which of a violation
    and malformed XML wins is pinned, as is the stop at an unknown root.
    """
    from oracle import Interpreter
    model, module, docs = data.draw(st.sampled_from(synth_models))
    doc = mutate(data.draw(st.sampled_from(docs)),
                 data.draw(st.lists(EDIT, max_size=3))).encode("utf-8")
    if data.draw(st.booleans()):
        doc = doc.replace(b"<", b"<zzz", 1)  # an unknown root
    op, pick = data.draw(BREAK)
    at = pick % (len(doc) + 1)
    doc = doc[:at] if op == "truncate" else doc[:at] + b"<" + doc[at:]
    oracle = Interpreter(model)
    for mode in ("lenient", "strict"):
        assert _outcome(module.parse_document, doc, mode) == \
            _outcome(oracle.parse_document, doc, mode), mode


def test_unknown_root_stops_before_malformed_tail(po_schema, tmp_path):
    model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
    obj, warnings = module.parse_document("<zzz/><", mode="lenient")
    assert obj is None
    assert [w.format() for w in warnings] == \
        ["WARN <input>:1:1 UNKNOWN_ELEMENT unknown document root zzz"]


def test_lenient_warnings_past_the_first_chunk_equal_oracle(po_schema, tmp_path):
    """Violations beyond 64 KiB, where the oracle's reader feeds a new chunk."""
    model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
    variants = [
        '<item qty="{i}"><name>n{i}</name><price>{i}.5</price></item>',
        '<item qty="x{i}"><name>n{i}</name><price>{i}.5</price></item>',
        '<item qty="{i}"><name>n{i}</name></item>',
        '<item qty="{i}"/>',
        '<item><name>n{i}</name><bogus><deep/></bogus><price>p{i}</price></item>',
        '<item>stray {i}\n<!-- c -->text<name>n{i}</name><price>1</price>\n</item>',
        '<item><name>n{i}</name><price><![CDATA[]]></price></item>',
    ]
    parts, size, i = [f'<po xmlns="{TNS}" id="1">\n'], 0, 0
    while size < 3 * 65_536:
        part = variants[i % len(variants) if size > 65_536 else 0].format(i=i) + "\n"
        parts.append(part)
        size += len(part)
        i += 1
    doc = "".join(parts) + "<note>n</note></po>"
    obj, warnings = module.parse_document(doc, mode="lenient")
    assert len(warnings) > 1000 and min(w.line for w in warnings) > 500
    assert_equivalent(model, module, [doc], mode="lenient")


def test_generated_parse_leaves_no_reference_cycle(po_schema, tmp_path):
    from slimbind.errors import SlimbindError
    model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
    cases = [
        (PO_DOC, "strict"),
        (PO_DOC.replace("<note>", "<bogus/><note>"), "strict"),
        ("<zzz/>", "lenient"),
        ("<zzz/>", "strict"),
        ("<zzz/><", "lenient"),
        (PO_DOC[:-10], "strict"),
        (PO_DOC + "<", "lenient"),
    ]
    gc.collect()
    gc.disable()
    try:
        for doc, mode in cases:
            try:
                module.parse_document(doc, mode=mode)
            except SlimbindError:
                pass
            assert gc.collect() == 0, (doc, mode)
    finally:
        gc.enable()


def test_generated_package_loads_only_the_runtime(po_schema, tmp_path):
    """A device imports a package and parses; it never loads the generator."""
    model = po_model(po_schema, name=unique_model_name("device"))
    write_artifacts(model, emit_parser_backend(model), os.fspath(tmp_path))
    src = os.path.dirname(os.path.dirname(runtime.__file__))
    probe = ("import json, sys\n"
             f"sys.path[:0] = [{os.fspath(tmp_path / 'gen')!r}, {src!r}]\n"
             f"import {model.name}\n"
             f"obj, warnings = {model.name}.parse_document({PO_DOC!r})\n"
             "assert obj is not None and not warnings\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('slimbind'))))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == \
        ["slimbind", "slimbind.errors", "slimbind.model", "slimbind.runtime"]
