"""Source emission: determinism, golden files, generated-parser behavior."""

from __future__ import annotations

import ast
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PO_DOC, TNS, XS_HEAD, analyze, cid, schema_of
from slimbind.analyzer import analyze_corpus
from genutil import (
    assert_equivalent,
    build_and_import,
    compile_model,
    normalize,
    unique_model_name,
)
from slimbind.binding import (
    _RECORD_ATTRIBUTES,
    _TEMPLATE_IMPORTS,
    BindingOptions,
    Cardinality,
    FieldKind,
    build_binding_model,
    effective_fields,
    serialize_binding_model,
)
from slimbind import emitter
from slimbind.emitter import (
    GeneratedArtifact,
    builtin_template_set,
    emit_parser_backend,
    render,
    size_report,
    write_artifacts,
)
from slimbind.errors import (
    BadSimpleValueError,
    MalformedXmlError,
    SlimbindError,
    UnresolvedPlaceholderError,
)
from slimbind.loader import SchemaSource, load_schema_set
from slimbind.model import QName
from slimbind import runtime
from slimbind.runtime import Record
from slimbind.simplify import compute_retained_set, reduction_report
from slimbind.templates import ManifestEntry, TemplateSet
from test_binding import synth_model

GOLDEN_DIR = Path(__file__).parent / "golden"
# The pinned files, each by the name of the TestGolden.golden_outputs() entry it holds.
GOLDEN_NAMES = sorted(path.name.removesuffix(".golden")
                      for path in GOLDEN_DIR.glob("*.golden"))


def field_rows(source, name):
    """The rows of its ``_ROWS`` a generated package's class ``name`` indexes.

    Each row is read as ``(key, slot, occurs, read, target)``, None for an
    empty item; a collapse row's target as ``(chain, read, target)``.
    """
    body = ast.parse(source).body
    (cls,) = [node for node in body if isinstance(node, ast.ClassDef) and node.name == name]
    table = assigned(body, "_ROWS")
    return tuple(read_row(table[index]) for index in assigned(cls.body, "_rows"))


def assigned(nodes, name):
    """The literal value the statements ``nodes`` assign to ``name``."""
    (value,) = [node.value for node in nodes
                if isinstance(node, ast.Assign) and node.targets[0].id == name]
    return ast.literal_eval(value)


def read_row(text):
    """One field row, as :func:`field_rows` gives it."""
    key, slot, occurs, read, *rest = (item or None for item in text.split("\t"))
    if read == "collapse":
        inner_read, inner_target, *chain = rest
        return key, slot, occurs, read, (tuple(chain), inner_read, inner_target)
    (target,) = rest
    return key, slot, occurs, read, target


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
        """One module holds a record class, with its field rows, per class."""
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
        assert not re.search(r"\bW\b", on.content) and on.byte_size < off.byte_size

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
        outputs = {a.path: a.content for a in emit_parser_backend(model)}
        outputs["usage-report.json"] = usage.to_json()
        outputs["reduction-report.json"] = reduction_report(schema, retained).to_json()
        outputs["binding-model.json"] = serialize_binding_model(model)
        return outputs

    def test_every_golden_file_is_an_output(self):
        """A file no output matches would never be read, an output with no file never checked."""
        assert sorted(self.golden_outputs()) == GOLDEN_NAMES

    @pytest.mark.parametrize("path", GOLDEN_NAMES)
    def test_matches_golden(self, path):
        golden_path = GOLDEN_DIR / (path + ".golden")
        assert self.golden_outputs()[path] == golden_path.read_bytes().decode(), (
            f"{path} drifted from the golden copy; inspect and refresh if intended")

    def test_golden_list_and_optional_shapes(self):
        artifacts = {a.path: a.content for a in self.artifacts()}
        source = artifacts["__init__.py"]
        rows = {row[1]: row for row in field_rows(source, "CartType")}
        assert rows["sku"][2] == "*"  # LIST accumulates
        assert rows["coupon"][2] == "?"  # SCALAR_OPTIONAL single slot
        assert f"'{TNS} card': " in source
        assert f"'{TNS} cash': " in source
        assert f"'{TNS} pay'" not in source  # head unobserved: bounded out


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
        # Names of the runtime's per-class tables, which _binding holds: not reserved.
        *(("R", name, name)
          for name in ("_initial", "_attributes", "_elements", "_required", "_text")),
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

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x85"],
                             ids=["nbsp", "em-space", "nel"])
    def test_only_xml_whitespace_is_trimmed(self, tmp_path, space):
        """A space outside XML's four is content wherever it stands.

        A boolean holding one is bad, element-only content holding one has
        stray text, and an ``xsi:nil`` holding one is not true.
        """
        schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="f" type="xs:boolean"/>
      <xs:element name="v" type="xs:string" nillable="true"/>
    </xs:sequence>
  </xs:complexType>""")
        head = f'<r xmlns="{TNS}" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
        model, module, _, _ = build_and_import(schema, [head + "<f>1</f><v>x</v></r>"],
                                               tmp_path)
        with pytest.raises(BadSimpleValueError):
            runtime.conv_boolean(runtime.ParseContext("<a/>"), f"{space}true", "f")
        for code, doc in [("BAD_SIMPLE_VALUE", f"<f>{space}true</f><v>x</v>"),
                          ("UNEXPECTED_TEXT", f"<f>true</f>{space}<v>x</v>")]:
            assert_equivalent(model, module, [head + doc + "</r>"], mode="lenient")
            _obj, warnings = module.parse_document(head + doc + "</r>", mode="lenient")
            assert [w.code for w in warnings] == [code]
        doc = head + f'<f>0</f><v xsi:nil="{space}true">x</v></r>'
        assert_equivalent(model, module, [doc])
        obj, warnings = module.parse_document(doc)
        assert (obj.f, obj.v, warnings) == (False, "x", [])

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
    """Record classes bind once the package has defined them all."""

    @pytest.mark.parametrize("case", RECURSIVE_CASES)
    def test_recursive_types_bind_in_one_module(self, case, tmp_path):
        body, doc, options = RECURSIVE_CASES[case]
        schema = schema_of(body)
        doc = doc.replace(">", f' xmlns="{TNS}">', 1)
        model, package, _, _ = build_and_import(schema, [doc], tmp_path, options)
        # Each class was bound at import, before its first parse.
        assert all(getattr(package, c.name)._binding[3] for c in model.classes)
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

    def test_package_binds_one_name_per_class(self, tmp_path):
        """A record class is its own parser: no other name stands for it."""
        schema, docs = shared_head_model(2)
        model, package, _, artifacts = build_and_import(schema, docs, tmp_path)
        source = artifacts[0].content
        (imports,) = re.findall(r"^from slimbind\.runtime import (.+)$", source, re.M)
        tables = re.findall(r"^(_D\d+) = \{$", source, re.M)
        assert tables
        assert {name for name in vars(package) if not name.startswith("__")} == \
            {c.name for c in model.classes} | set(tables) | set(imports.split(", ")) | \
            {"_ROWS", "_ROOTS", "parse_document"}
        assert "_lists" not in source and "RecordParser" not in source
        assert not hasattr(runtime, "RecordParser")
        assert_equivalent(model, package, docs)

    def test_derived_class_binds_inherited_list_fields(self, tmp_path):
        """Without flattening each class holds its own tables, inherited lists included."""
        schema = schema_of("""
  <xs:element name="r" type="tns:Holder"/>
  <xs:complexType name="Holder">
    <xs:sequence>
      <xs:element name="base" type="tns:Base" minOccurs="0"/>
      <xs:element name="derived" type="tns:Derived" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Base">
    <xs:sequence>
      <xs:element name="v" type="xs:int" maxOccurs="unbounded"/>
      <xs:element name="b" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Derived">
    <xs:complexContent><xs:extension base="tns:Base">
      <xs:sequence><xs:element name="w" type="xs:string" minOccurs="0"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>""")
        docs = [f'<r xmlns="{TNS}"><base><v>1</v><b>x</b></base>'
                '<derived><v>2</v><v>3</v><b>y</b><w>z</w></derived></r>']
        model, package, _, _ = build_and_import(
            schema, docs, tmp_path, BindingOptions(flatten_inheritance=False))
        for c in model.classes:
            cls = getattr(package, c.name)
            assert "_binding" in vars(cls), c.name
            assert cls._lists == {f.name for f in effective_fields(model, c)
                                  if f.cardinality is Cardinality.LIST}, c.name
        derived = model.class_by_name("Derived")
        assert derived.base == "Base" and "v" not in {f.name for f in derived.fields}
        assert package.Derived._lists == {"v"}
        assert_equivalent(model, package, docs)


def _matched_names(source):
    """Every name a package's rows and tables match on, as the package spells it.

    A row's ``read`` says whether its key names an element or attribute, or
    a table; a collapse row also matches its chain.
    """
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for key, _slot, _occurs, read, target in field_rows(source, node.name):
                if read == "collapse":
                    names += target[0]
                if key is not None and read != "dispatch":
                    names.append(key)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            names += [ast.literal_eval(key) for key in node.value.keys]
    return names


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

    def test_artifacts_are_written_as_the_bytes_the_manifest_counts(self, po_schema,
                                                                     tmp_path):
        """Line ends and non-ASCII text are written as they are, never translated."""
        model = po_model(po_schema, name=unique_model_name())
        templates = TemplateSet({"c.tpl": "{{name}}\r\n\u00e9\n{{xml_type}}\n"},
                                [ManifestEntry("c.tpl", "{{module}}.txt", per="class")])
        artifacts = [*emit_parser_backend(model), *render(model, templates)]
        manifest = write_artifacts(model, artifacts, tmp_path)
        gen_dir = tmp_path / "gen" / model.name
        assert len(manifest["artifacts"]) == len(artifacts) > 2
        for entry in manifest["artifacts"]:
            blob = (gen_dir / entry["path"]).read_bytes()
            assert (len(blob), hashlib.sha256(blob).hexdigest()) == \
                (entry["bytes"], entry["sha256"]), entry["path"]
        assert manifest["totalBytes"] == sum(
            (gen_dir / entry["path"]).stat().st_size for entry in manifest["artifacts"])

    def test_manifest_counts_the_rows_the_package_indexes(self, tmp_path):
        """Three classes with the same seven rows, and a root class with three."""
        model = wide_model(3)
        package, artifacts = compile_model(model, tmp_path)
        manifest = json.loads((tmp_path / "gen" / model.name / "MANIFEST.json").read_text())
        classes = [getattr(package, c.name) for c in model.classes]
        assert manifest["rows"] == {"referenced": sum(len(vars(c)["_rows"]) for c in classes),
                                    "distinct": len(package._ROWS)} == \
            {"referenced": 3 * 7 + 3, "distinct": 7 + 3}
        assert manifest["totalBytes"] == sum(a.byte_size for a in artifacts)

    def test_no_references_outside_retained(self, po_schema):
        """Every name matched by generated code maps to a retained component."""
        usage = analyze(po_schema, PO_DOC)
        retained = compute_retained_set(po_schema, usage)
        model = build_binding_model(po_schema, retained, usage, BindingOptions(),
                                    model_name="scan")
        artifacts = emit_parser_backend(model)
        retained_names = set()
        for comp_id in retained:
            comp = po_schema.component(comp_id)
            qn = comp.name or getattr(comp.detail, "qname", None)
            if qn is not None:
                retained_names.add(runtime.expat_name(qn.namespace, qn.local))
        for cls in model.classes:
            assert cls.source_type in retained
        found = set()
        for artifact in artifacts:
            for name in _matched_names(artifact.content):
                assert name in retained_names, (artifact.path, name)
                found.add(name)
        # The scan must see every name an element or attribute field matches;
        # otherwise a change in the generated shape would pass it vacuously.
        for cls in model.classes:
            for f in cls.fields:
                if f.kind is FieldKind.TEXT_CONTENT:
                    continue
                names = [e.qname for e in f.dispatch if e.via == "element"] or [f.xml_name]
                for qn in names:
                    assert runtime.expat_name(qn.namespace, qn.local) in found, \
                        (cls.name, f.name, qn)


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


def test_simple_content_interrupted_by_children_reads_in_linear_time(po_schema, tmp_path):
    # Rebuilding the text gathered so far at each child copies it once per
    # child: about 5 * 10^10 characters here, seconds, not a fraction of one.
    model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
    run = "0123456789" * 4
    doc = f'<po xmlns="{TNS}" id="1"><note>{(run + "<x/>") * 50_000}</note></po>'
    began = time.perf_counter()
    obj, warnings = module.parse_document(doc, mode="lenient")
    assert time.perf_counter() - began < 2.0
    assert obj.note == run * 50_000
    assert len(warnings) == 50_000
    assert {w.code for w in warnings} == {"UNKNOWN_ELEMENT"}


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


# ---------------------------------------------------------------- expat-name keys

_XSI_DECL = f'xmlns:xsi="{XSI_NS}"'
# R holds B values directly and inside G; D extends B with a required dy.
_TYPED_BODY = """
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="v" type="tns:B" minOccurs="0" maxOccurs="unbounded"/>
      <xs:element name="g" type="tns:G" minOccurs="0" maxOccurs="unbounded"/>
      <xs:element name="w" type="tns:B" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="G">
    <xs:sequence>
      <xs:element name="v" type="tns:B" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="B">
    <xs:sequence><xs:element name="bx" type="xs:int" minOccurs="0"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:extension base="tns:B">
      <xs:sequence><xs:element name="dy" type="xs:int"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>"""


def _typed_module(tmp_path, xs_head=None):
    """The R/G/B/D package; the corpus gives each B field an xsi:type table."""
    text = f"{xs_head or XS_HEAD}\n{_TYPED_BODY}\n</xs:schema>"
    schema = load_schema_set([SchemaSource("mem://typed.xsd", raw_text=text)])
    namespace = re.search(r'targetNamespace="([^"]*)"', text).group(1)
    typed = '<n:{0} xsi:type="n:D"><n:bx>1</n:bx><n:dy>1</n:dy></n:{0}><n:{0}/>'
    corpus = [f'<n:r xmlns:n="{namespace}" {_XSI_DECL}>{typed.format("v")}'
              f'<n:g>{typed.format("v")}</n:g><n:g/>{typed.format("w")}</n:r>']
    model, module, _, _ = build_and_import(schema, corpus, tmp_path)
    return model, module


def _assert_oracle_outcomes(model, module, docs):
    """Object, warnings and positions, or the error, equal the oracle's in both modes."""
    from oracle import Interpreter
    oracle = Interpreter(model)
    for doc in docs:
        for mode in ("lenient", "strict"):
            assert _outcome(module.parse_document, doc, mode) == \
                _outcome(oracle.parse_document, doc, mode), (mode, doc)


_D_VALUE = '<n:bx>1</n:bx>\n<n:dy>2</n:dy>'


@pytest.mark.parametrize("doc", [
    # A prefix redeclared on a nested element, then the outer binding again.
    (f'<n:r xmlns:n="{TNS}" xmlns:p="urn:elsewhere" {_XSI_DECL}>\n'
     f'<n:v xsi:type="p:D">{_D_VALUE}</n:v>\n'
     f'<n:g xmlns:p="{TNS}">\n<n:v xsi:type="p:D">{_D_VALUE}</n:v>\n</n:g>\n'
     f'<n:w xsi:type="p:D">{_D_VALUE}</n:w>\n</n:r>'),
    # xmlns="" undeclares the default namespace, for the inner scope only.
    (f'<n:r xmlns:n="{TNS}" xmlns="{TNS}" {_XSI_DECL}>\n'
     f'<n:g>\n<n:v xsi:type="D">{_D_VALUE}</n:v>\n</n:g>\n'
     f'<n:g xmlns="">\n<n:v xsi:type="D">{_D_VALUE}</n:v>\n'
     f'<n:v xmlns="{TNS}" xsi:type="D">{_D_VALUE}</n:v>\n</n:g>\n'
     f'<n:v xsi:type="D">{_D_VALUE}</n:v>\n</n:r>'),
    # The prefix xsi:type uses is declared on the element that carries it.
    (f'<n:r xmlns:n="{TNS}" xmlns:q="urn:elsewhere" {_XSI_DECL}>\n'
     f'<n:v xmlns:q="{TNS}" xsi:type="q:D">{_D_VALUE}</n:v>\n'
     f'<n:v xsi:type="q:D"/>\n<n:w xmlns:q="urn:elsewhere" xsi:type="q:D">{_D_VALUE}</n:w>'
     '\n</n:r>'),
    # Redeclared on the element itself, over an outer binding; then the sibling.
    (f'<n:r xmlns:n="{TNS}" xmlns:q="urn:elsewhere" {_XSI_DECL}>\n'
     f'<n:g><n:v xmlns:q="{TNS}" xsi:type="q:D">{_D_VALUE}</n:v>\n'
     f'<n:v xsi:type="q:D">{_D_VALUE}</n:v></n:g>\n'
     f'<n:g xmlns:q="{TNS}"/>\n<n:v xsi:type="q:D">{_D_VALUE}</n:v>\n</n:r>'),
], ids=["nested-redeclaration", "undeclared-default", "same-element", "sibling-after-scope"])
def test_xsi_type_resolves_in_the_namespace_scope_of_its_element(tmp_path, doc):
    model, module = _typed_module(tmp_path)
    _assert_oracle_outcomes(model, module, [doc])
    lenient, warnings = module.parse_document(doc, mode="lenient")
    values = lenient.v + lenient.w + [v for g in lenient.g for v in g.v]
    assert {type(v).__name__ for v in values} == {"B", "D"}
    assert any(w.code == "UNKNOWN_ELEMENT" for w in warnings)  # dy outside D


@pytest.mark.parametrize("xsi_type", [
    "ns D", " ns D ", "n:D x", "n:D&#9;x", "w0:D", "w0:", "n:", ":D", "D", " n:D ",
], ids=lambda value: ascii(value))
def test_xsi_type_edge_cases_match_the_oracle(tmp_path, xsi_type):
    """A value that is not a QName, or whose prefix is undeclared, is malformed.

    The target namespace ``ns`` has no colon, so ``"ns D"`` is the very
    expat name of type D; read as xsi:type, it holds a space, so it is no
    QName and names no type.
    """
    head = XS_HEAD.replace(TNS, "ns")
    model, module = _typed_module(tmp_path, head)
    doc = (f'<n:r xmlns:n="ns" {_XSI_DECL}>\n<n:v xsi:type="{xsi_type}">'
           f'{_D_VALUE}</n:v>\n</n:r>')
    _assert_oracle_outcomes(model, module, [doc])
    if xsi_type.strip() not in ("n:D", "D"):
        with pytest.raises(MalformedXmlError):
            module.parse_document(doc, mode="lenient")
        return
    obj, _ = module.parse_document(doc, mode="lenient")
    assert type(obj.v[0]).__name__ == ("D" if xsi_type.strip() == "n:D" else "B")


@pytest.fixture(scope="module")
def typed_parsers(tmp_path_factory):
    """The R/G/B/D schema, its generated package and the oracle over its model."""
    from oracle import Interpreter
    model, module = _typed_module(tmp_path_factory.mktemp("typed"))
    schema = schema_of(_TYPED_BODY)
    return schema, module, Interpreter(model)


def _malformed(parse, doc, mode):
    """The message of the MalformedXmlError ``parse`` raises, or None."""
    from slimbind.errors import SlimbindError
    try:
        parse(doc, mode=mode, source_name="d.xml")
    except SlimbindError as exc:
        return str(exc) if isinstance(exc, MalformedXmlError) else None
    return None


@settings(max_examples=120, deadline=None)
@given(pad=st.sampled_from(["", " ", "\t"]),
       prefix=st.sampled_from(["", "n:", "q:", "zz:", ":", "n:x:"]),
       local=st.sampled_from(["D", "B", "", "D x", "D\u00a0", "a:b"]))
def test_xsi_type_spellings_are_rejected_alike(typed_parsers, pad, prefix, local):
    """The analyzer, the generated parser and the oracle reject the same values.

    Each rejection is a MALFORMED_XML error at the element, with one message.
    """
    schema, module, oracle = typed_parsers
    value = f"{pad}{prefix}{local}{pad}".replace("\t", "&#9;")
    doc = (f'<n:r xmlns:n="{TNS}" xmlns:q="{TNS}" {_XSI_DECL}>\n'
           f'<n:v xsi:type="{value}">{_D_VALUE}</n:v>\n</n:r>')
    for mode in ("strict", "lenient"):
        [analyzed] = [exc.__cause__ for _name, exc in
                      analyze_corpus(schema, [("d.xml", doc)], mode).failures
                      if isinstance(exc.__cause__, MalformedXmlError)] or [None]
        expected = None if analyzed is None else str(analyzed)
        assert _malformed(module.parse_document, doc, mode) == expected, (value, mode)
        assert _malformed(oracle.parse_document, doc, mode) == expected, (value, mode)
    valid = local in ("D", "B") and prefix in ("", "n:", "q:")
    assert (expected is None) == valid, value
    first, colon, _rest = (prefix + local).partition(":")
    if colon and first not in ("", "n", "q"):
        assert expected == (f"MALFORMED_XML: xsi:type uses undeclared prefix '{first}' "
                            "at d.xml:2:1")
    elif not valid:
        assert expected.endswith("is not a QName at d.xml:2:1")


def test_one_local_name_in_two_namespaces_and_none(tmp_path):
    (tmp_path / "two.xsd").write_text(f"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
    targetNamespace="urn:two" elementFormDefault="qualified">
  <xs:element name="a" type="xs:decimal"/>
</xs:schema>""")
    main = f"""{XS_HEAD.replace('>', ' xmlns:tw="urn:two">')}
  <xs:import namespace="urn:two" schemaLocation="two.xsd"/>
  <xs:element name="r">
    <xs:complexType><xs:sequence>
      <xs:element name="a" type="xs:int" minOccurs="0"/>
      <xs:element ref="tw:a" minOccurs="0"/>
      <xs:element name="a" form="unqualified" type="xs:boolean" minOccurs="0"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"""
    (tmp_path / "main.xsd").write_text(main)
    schema = load_schema_set([SchemaSource.from_file(tmp_path / "main.xsd")])
    good = f'<r xmlns="{TNS}" xmlns:tw="urn:two"><a>1</a><tw:a>2.5</tw:a><a xmlns="">true</a></r>'
    model, module, _, _ = build_and_import(schema, [good], tmp_path)
    obj, warnings = module.parse_document(good)
    assert sorted(normalize(obj).values(), key=str) == [1, Decimal("2.5"), True]
    assert not warnings
    docs = [
        good,
        # Each a in another's place: a bad value, read by the other's conversion.
        f'<r xmlns="{TNS}" xmlns:tw="urn:two">\n<a>x</a>\n<tw:a>true</tw:a>\n'
        '<a xmlns="">2.5</a></r>',
        # Unknown names print as {namespace}local, or local in no namespace.
        f'<r xmlns="{TNS}" xmlns:tw="urn:two">\n<tw:b/>\n<b xmlns=""/>\n'
        '<a xmlns="urn:three">1</a>\n<tw:a><a/></tw:a>\n</r>',
    ]
    _assert_oracle_outcomes(model, module, docs)
    _, warnings = module.parse_document(docs[2], mode="lenient")
    assert [w.message.split(" in ")[0] for w in warnings if w.code == "UNKNOWN_ELEMENT"] == [
        "unexpected element {urn:two}b", "unexpected element b",
        "unexpected element {urn:three}a", f"unexpected element {{{TNS}}}a"]


def test_bind_parsers_reads_the_package_tables_unchanged(tmp_path, monkeypatch):
    """Importing a package leaves its tables as the module text defines them."""
    defined = {}  # the tables as the package module defined them, and their keys
    bind_parsers = runtime.bind_parsers

    def spy(names):
        defined.update(roots=names["_ROOTS"], root_keys=list(names["_ROOTS"]),
                       d0=names["_D0"], d0_keys=list(names["_D0"]))
        bind_parsers(names)

    monkeypatch.setattr(runtime, "bind_parsers", spy)
    schema = schema_of("""
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence><xs:element ref="tns:h" maxOccurs="unbounded"/></xs:sequence>
    <xs:attribute name="id" type="xs:int"/>
  </xs:complexType>
  <xs:element name="h" type="xs:string"/>
  <xs:element name="m" type="xs:string" substitutionGroup="tns:h"/>""")
    docs = [f'<r xmlns="{TNS}" id="1"><h>a</h><m>b</m></r>']
    model, module, _, _ = build_and_import(schema, docs, tmp_path)
    assert module._ROOTS is defined["roots"] and module._D0 is defined["d0"]
    assert defined["root_keys"] == list(module._ROOTS) == [f"{TNS} r"]
    assert defined["d0_keys"] == list(module._D0) == [f"{TNS} h", f"{TNS} m"]
    binding = module.R._binding
    assert list(binding[2]) == ["id"] and list(binding[3]) == [f"{TNS} h", f"{TNS} m"]
    # Binding again reads the same tables, so it binds every class the same.
    bindings = {c.name: getattr(module, c.name)._binding for c in model.classes}
    bind_parsers(vars(module))
    assert {c.name: getattr(module, c.name)._binding for c in model.classes} == bindings
    assert module.parse_document(docs[0])[0].h == ["a", "b"]
    assert_equivalent(model, module, docs)


_KEY_CLASH_BODY = """
  <xs:element name="r" type="tns:R"/>
  <xs:attribute name="a" type="xs:int"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="_D0" form="unqualified" type="xs:string"/>
      <xs:element name="_ROOTS" form="unqualified" type="xs:int" minOccurs="0"/>
      <xs:element ref="tns:h" maxOccurs="unbounded"/>
    </xs:sequence>
    <xs:attribute ref="tns:a" use="required"/>
  </xs:complexType>
  <xs:element name="h" type="xs:string"/>
  <xs:element name="m" type="xs:string" substitutionGroup="tns:h"/>"""


@pytest.mark.parametrize("ignored", [None, QName("", "_D0"), QName(TNS, "h")],
                         ids=["plain", "ignore-_D0", "ignore-h"])
def test_row_read_tells_an_element_key_from_a_table_name(tmp_path, ignored):
    """No-namespace elements named ``_D0`` and ``_ROOTS`` beside the table ``_D0``.

    The element's expat name and the dispatch table's name are one string,
    so only a row's ``read`` tells what its key names.
    """
    schema = schema_of(_KEY_CLASH_BODY)
    head = f'<t:r xmlns:t="{TNS}"'
    good = f'{head} t:a="1"><_D0>x</_D0><_ROOTS>2</_ROOTS><t:h>a</t:h><t:m>b</t:m></t:r>'
    options = BindingOptions(ignore_paths=((QName(TNS, "r"), ignored),) if ignored else ())
    model, module, _, artifacts = build_and_import(schema, [good], tmp_path, options)
    assert "_D0 = {" in artifacts[0].content
    assert ("_D0", "_D0") in [row[:2] for row in field_rows(artifacts[0].content, "R")]
    docs = [
        good,
        # Unqualified a is another attribute; the required one names its local part.
        f'{head} a="1"><t:_D0>x</t:_D0><_ROOTS>x</_ROOTS><t:m>b</t:m></t:r>',
        f'{head} t:a="2"><_D0>x<t:h/></_D0><h>c</h><t:h>a</t:h></t:r>',
    ]
    _assert_oracle_outcomes(model, module, docs)
    obj, _ = module.parse_document(good)
    assert (obj._D0, obj._ROOTS, obj.h, obj.a) == (
        None if ignored == QName("", "_D0") else "x", 2,
        [] if ignored == QName(TNS, "h") else ["a", "b"], 1)
    _, warnings = module.parse_document(docs[1], mode="lenient")
    assert "missing required attribute a in R" in [w.message for w in warnings]


_OLD_FORMAT_PACKAGE = """\
from slimbind.runtime import Record, bind_parsers, parse_root


class R(Record):
    __slots__ = ('v',)
    _rows = (
        (('urn:fix', 'v'), 'v', '?', 'simple', 'string'),
    )


_ROOTS = {
    ('urn:fix', 'r'): (R, None, None),
}
bind_parsers(globals())
"""


def test_package_in_the_tuple_keyed_format_is_refused(tmp_path, monkeypatch):
    """A package emitted with (namespace, local) keys would match no element."""
    monkeypatch.syspath_prepend(os.fspath(tmp_path))
    old, new = unique_model_name("old"), unique_model_name("new")
    (tmp_path / f"{old}.py").write_text(_OLD_FORMAT_PACKAGE)
    with pytest.raises(ImportError, match="older format.*regenerate"):
        importlib.import_module(old)
    # The same package keyed by expat names imports and parses.
    (tmp_path / f"{new}.py").write_text(_current_format(_OLD_FORMAT_PACKAGE))
    package = importlib.import_module(new)
    obj, warnings = runtime.parse_root(package._ROOTS, '<r xmlns="urn:fix"><v>x</v></r>')
    assert (obj.v, warnings) == ("x", [])


def _expat_keyed(package):
    """``package`` with its ``(namespace, local)`` keys spelt as expat names."""
    return re.sub(r"\('urn:fix', '(\w+)'\)", r"'urn:fix \1'", package)


def _string_rows(package):
    """``package`` keyed by expat names, with each field row one string in its class."""
    return re.sub(r"^( +)\((.*)\),$", lambda m: m[1] + repr("\t".join(
        ast.literal_eval(f"({m[2]})"))) + ",", _expat_keyed(package), flags=re.M)


def _current_format(package):
    """``package`` keyed by expat names, its classes indexing the field rows in ``_ROWS``."""
    table = []

    def index(match):
        table.append(ast.literal_eval(match[2]))
        return f"{match[1]}{len(table) - 1},"

    package = re.sub(r"^( +)('.*'),$", index, _string_rows(package), flags=re.M)
    head, rest = package.split("\n", 1)
    return f"{head}\n_ROWS = {tuple(table)!r}\n{rest}"


def test_package_with_tuple_rows_is_refused(tmp_path, monkeypatch):
    """Field rows written as tuples, as earlier versions wrote them, are refused."""
    monkeypatch.syspath_prepend(os.fspath(tmp_path))
    old = unique_model_name("rows")
    (tmp_path / f"{old}.py").write_text(_expat_keyed(_OLD_FORMAT_PACKAGE))
    with pytest.raises(ImportError, match="field rows are tuples.*regenerate"):
        importlib.import_module(old)


def test_package_with_string_rows_is_refused(tmp_path, monkeypatch):
    """Field rows written as strings in their class, as earlier versions wrote them."""
    monkeypatch.syspath_prepend(os.fspath(tmp_path))
    old = unique_model_name("rows")
    (tmp_path / f"{old}.py").write_text(_string_rows(_OLD_FORMAT_PACKAGE))
    with pytest.raises(ImportError, match="field rows are strings.*regenerate"):
        importlib.import_module(old)


@pytest.mark.parametrize("row", [
    "1", "-1", "True", "0.0", "'0'", repr("urn:fix v\tv\t?\tsimple\tstring"),
    "('urn:fix v', 'v', '?', 'simple', 'string')"])
def test_package_with_a_row_that_indexes_nothing_is_refused(tmp_path, monkeypatch, row):
    """Each of a class's rows is an index into ``_ROWS``, which holds one row here."""
    monkeypatch.syspath_prepend(os.fspath(tmp_path))
    old = unique_model_name("rows")
    package = _current_format(_OLD_FORMAT_PACKAGE)
    (tmp_path / f"{old}.py").write_text(package.replace("        0,\n", f"        {row},\n"))
    with pytest.raises(ImportError, match=r"field row .* in R that is not an index into "
                       "_ROWS; regenerate"):
        importlib.import_module(old)


def test_package_without_a_row_table_is_refused(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.fspath(tmp_path))
    old = unique_model_name("rows")
    package = re.sub(r"^_ROWS = .*\n", "", _current_format(_OLD_FORMAT_PACKAGE), flags=re.M)
    (tmp_path / f"{old}.py").write_text(package)
    with pytest.raises(ImportError, match="no row table _ROWS; regenerate"):
        importlib.import_module(old)


@settings(max_examples=30, deadline=None)
@given(synth_model())
def test_each_distinct_row_is_written_once_in_order_of_first_use(model):
    """A class's rows, resolved through ``_ROWS``, are its matchable fields' rows in order."""
    (package,) = emit_parser_backend(model)
    body = ast.parse(package.content).body
    table = assigned(body, "_ROWS")
    classes = {node.name: assigned(node.body, "_rows")
               for node in body if isinstance(node, ast.ClassDef)}
    tables = emitter._Tables(emitter._module_names(model))
    used = []
    for cls in emitter._base_first(model.classes):
        rows = [emitter._row(cls, f, tables) for f in emitter._matchable(model, cls)]
        assert [table[index] for index in classes[cls.name]] == rows, cls.name
        used += rows
    assert list(dict.fromkeys(used)) == list(table)
    assert package.rows == {"referenced": sum(map(len, classes.values())),
                            "distinct": len(table)}


def wide_model(n_classes):
    """A model of ``n_classes`` record classes, each with seven field rows."""
    types = "".join(
        f'<xs:complexType name="T{i}"><xs:sequence>'
        + "".join(f'<xs:element name="f{j}" type="xs:string" maxOccurs="unbounded"/>'
                  for j in range(5))
        + '<xs:element name="n" type="xs:decimal"/></xs:sequence>'
        '<xs:attribute name="id" type="xs:int"/></xs:complexType>' for i in range(n_classes))
    root = ('<xs:element name="r"><xs:complexType><xs:sequence>'
            + "".join(f'<xs:element name="e{i}" type="tns:T{i}"/>' for i in range(n_classes))
            + "</xs:sequence></xs:complexType></xs:element>")
    schema = schema_of(types + root)
    record = "".join(f"<f{j}>v</f{j}><f{j}>v</f{j}>" for j in range(5)) + "<n>1</n>"
    doc = f'<r xmlns="{TNS}">' + "".join(
        f'<e{i} id="1">{record}</e{i}>' for i in range(n_classes)) + "</r>"
    usage = analyze(schema, doc)
    return build_binding_model(schema, compute_retained_set(schema, usage), usage,
                               BindingOptions(), model_name=unique_model_name("wide"))


def traced_peak(fn, *args):
    """The ``tracemalloc`` peak of ``fn(*args)``, in bytes, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_string_rows_compile_in_far_less_memory_than_tuple_rows():
    """Each row is one constant for the compiler, not five or more."""
    (package,) = emit_parser_backend(wide_model(200))
    table = assigned(ast.parse(package.content).body, "_ROWS")
    # Each class writes its own rows as tuples, as earlier versions did.
    as_tuples = re.sub(r"^    _rows = (.*)$", lambda m: "    _rows = (\n" + "".join(
        f"        {read_row(table[index])!r},\n" for index in ast.literal_eval(m[1])) + "    )",
        re.sub(r"^_ROWS = \(\n(?:    .*\n)*\)\n", "", package.content, flags=re.M), flags=re.M)
    assert as_tuples.count("'simple', 'string'),") == 200 * 5
    rows, _ = traced_peak(compile, package.content, "<rows>", "exec")
    tuples, _ = traced_peak(compile, as_tuples, "<tuples>", "exec")
    assert rows <= 0.6 * tuples, (rows, tuples)


def test_serializing_a_model_holds_little_beside_its_text():
    """The model is written record by record, never built as one tree of JSON data."""
    model = wide_model(200)
    peak, text = traced_peak(serialize_binding_model, model)
    assert peak <= 3 * len(text), (peak, len(text))


def test_every_slot_name_a_class_binds_is_interned(tmp_path):
    model = wide_model(3)
    model.classes[0].fields[0].ignored = True
    package, _ = compile_model(model, tmp_path)
    for c in model.classes:
        presets, lists, attributes, elements, required, text = getattr(package, c.name)._binding
        slots = [slot for slot, _value in presets] + list(lists)
        slots += [slot for slot, _conv, _what in attributes.values()]
        slots += [action[4] for action in elements.values() if action]
        slots += [slot for slot, _message in required]
        slots += [text[0]] if text else []
        assert len(slots) >= 7 and all(sys.intern(s) is s for s in slots), c.name


def test_a_namespace_holding_a_tab_is_refused():
    """A tab separates a row's items, so no name in a row may hold one."""
    ns = "urn:a&#9;b"
    schema = load_schema_set([SchemaSource("mem://tab.xsd", raw_text=(
        f'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" targetNamespace="{ns}"'
        ' elementFormDefault="qualified"><xs:element name="r"><xs:complexType>'
        '<xs:sequence><xs:element name="v" type="xs:string"/></xs:sequence>'
        "</xs:complexType></xs:element></xs:schema>"))])
    usage = analyze_corpus(schema, [("d.xml", f'<r xmlns="{ns}"><v>x</v></r>')])
    model = build_binding_model(schema, compute_retained_set(schema, usage), usage)
    with pytest.raises(SlimbindError, match="RType.v: a name holds a tab"):
        emit_parser_backend(model)
