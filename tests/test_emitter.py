"""Source emission: determinism, golden files, generated-parser behavior."""

from __future__ import annotations

import ast
import codecs
import contextlib
import gc
import hashlib
import importlib
import inspect
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
from hypothesis import example, given, settings, strategies as st

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
    deserialize_binding_model,
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
from test_binding import COLLAPSE_CHAIN_MODEL, synth_model

GOLDEN_DIR = Path(__file__).parent / "golden"
# The pinned files, each by the name of the TestGolden.golden_outputs() entry it holds.
GOLDEN_NAMES = sorted(path.name.removesuffix(".golden")
                      for path in GOLDEN_DIR.glob("*.golden"))


def field_rows(source, name):
    """The rows of its ``_ROWS`` a generated package's class ``name`` indexes.

    Each row is expanded through ``_NS`` as the runtime expands it, and read
    as ``(key, slot, occurs, read, target)``, None for an empty item; a
    collapse row's target as ``(chain, read, target)``.
    """
    namespaces, table, classes = _package_tables(source)
    return tuple(read_row(table[index], namespaces) for index in classes[name])


def assigned(nodes, name):
    """The literal value the statements ``nodes`` assign to ``name``."""
    (value,) = [node.value for node in nodes
                if isinstance(node, ast.Assign) and node.targets[0].id == name]
    return ast.literal_eval(value)


def root_table(parse_document):
    """The root table a package's ``parse_document`` parses through."""
    return inspect.getclosurevars(parse_document).nonlocals["roots"]


def packed_lines(text):
    """The lines of a packed table, each ended by a newline."""
    assert text.endswith("\n") or not text
    return text.split("\n")[:-1]


def read_row(text, namespaces):
    """One field row, as :func:`field_rows` gives it, expanded by ``runtime._split_row``."""
    key, slot, occurs, read, target, chain, _required = runtime._split_row(text, namespaces)
    if chain is not None:
        return key or None, slot, occurs, "collapse", (chain, read, target or None)
    return key or None, slot, occurs, read, target or None


def full_row(split):
    """The row ``runtime._split_row`` gave ``split`` for, every name and slot written out."""
    key, slot, occurs, read, target, chain, _required = split
    if chain is not None:
        read, target = "collapse", "|".join((read, target, *chain))
    return "|".join((key, slot, occurs, read, target or ""))


def class_names(source):
    """The classes a generated package defines, in order."""
    return list(_package_tables(source)[2])


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
        # The classes are data: no class statement and no loop that builds them.
        assert not [node for node in ast.walk(ast.parse(package.content)) if isinstance(
            node, (ast.ClassDef, ast.For, ast.While, ast.comprehension))]
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
        matched = _matched_names(source)
        assert f"{TNS} card" in matched and f"{TNS} cash" in matched
        assert f"{TNS} pay" not in matched  # head unobserved: bounded out


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
        assert by_path["__init__.py"].endswith(
            f"\nparse_document = bind_parsers(globals(), {runtime.PACKAGE_FORMAT})\n")

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
        assert '_D0 = """' in artifacts[0].content
        # A class name starts with a capital, so it can only take the
        # capitalized names the package imports, which binding reserves.
        template = builtin_template_set().templates["package.py"]
        (line,) = re.findall(r"^from .+$", template, re.M)
        assert set(re.findall(r"\b[A-Z]\w*", line)) <= set(_TEMPLATE_IMPORTS)
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

    def test_namespace_uri_holding_a_space_is_named(self, po_schema, tmp_path):
        _model, module, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
        bad = PO_DOC.replace("<note>", '<note xmlns:p="urn:a b">')
        for mode in ("strict", "lenient"):
            with pytest.raises(MalformedXmlError) as info:
                module.parse_document(bad, mode=mode, source_name="s.xml")
            assert str(info.value) == (
                "MALFORMED_XML: namespace URI 'urn:a b' holds a space, the separator "
                "expat puts between a namespace and a local name at s.xml:4:3")

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
            assert re.findall(r'^(_D\d+) = """', source, re.M) == ["_D0"]
            assert "def " not in source
            for i in range(k):
                # The field matches and reads through the shared table.
                assert field_rows(source, f"C{i}") == (("_D0", "h", "*", "dispatch", "h"),)
            sources[k] = source[source.index('_D0 = """'):]
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

    def test_restriction_restating_a_base_field_holds_it_once(self, tmp_path):
        """A restriction's slot repeats its base's; the field is still one field."""
        schema = schema_of("""
  <xs:element name="r" type="tns:B"/>
  <xs:element name="s" type="tns:D"/>
  <xs:complexType name="B">
    <xs:sequence>
      <xs:element name="a" type="xs:int"/>
      <xs:element name="b" type="xs:string" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="D">
    <xs:complexContent><xs:restriction base="tns:B">
      <xs:sequence><xs:element name="a" type="xs:int"/></xs:sequence>
    </xs:restriction></xs:complexContent>
  </xs:complexType>""")
        docs = [f'<r xmlns="{TNS}"><a>1</a><b>x</b></r>', f'<s xmlns="{TNS}"><a>2</a></s>']
        model, package, _, _ = build_and_import(
            schema, docs, tmp_path, BindingOptions(flatten_inheritance=False))
        derived = package.D
        assert derived.__bases__ == (package.B,) and derived.__slots__ == ("a",)
        assert derived._fields == package.B._fields == ("a", "b")
        presets, lists = derived._binding[:2]
        assert [slot for slot, _ in presets] == ["a", "b"] and lists == ()
        assert derived(a=1).a == 1
        assert repr(derived(a=1)) == "D(a=1, b=None)"
        assert_equivalent(model, package, docs)

    def test_package_binds_one_name_per_class(self, tmp_path):
        """A record class is its own parser: no other name stands for it."""
        schema, docs = shared_head_model(2)
        model, package, _, artifacts = build_and_import(schema, docs, tmp_path)
        source = artifacts[0].content
        (imports,) = re.findall(r"^from slimbind\.runtime import (.+)$", source, re.M)
        tables = re.findall(r'^(_D\d+) = """', source, re.M)
        assert tables
        assert {name for name in vars(package) if not name.startswith("__")} == \
            {c.name for c in model.classes} | set(tables) | set(imports.split(", ")) | \
            {"_NS", "_ROWS", "_CLASSES", "_ROOTS", "parse_document"}
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
    """Every name a package's rows and tables match on, as expat spells it.

    A row's ``read`` says whether its key names an element or attribute, or
    a table; a collapse row also matches its chain.
    """
    names = []
    for name in class_names(source):
        for key, _slot, _occurs, read, target in field_rows(source, name):
            if read == "collapse":
                names += target[0]
            if key is not None and read != "dispatch":
                names.append(key)
    body = ast.parse(source).body
    namespaces = assigned(body, "_NS")
    for node in body:
        if isinstance(node, ast.Assign) and re.fullmatch(r"_D\d+|_ROOTS", node.targets[0].id):
            for line in packed_lines(ast.literal_eval(node.value)):
                index, space, local = line.split("|")[0].partition(" ")
                names.append(runtime.expat_name(namespaces[int(index)], local) if space
                             else local)
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
                                    "distinct": len(packed_lines(package._ROWS))} == \
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
    _typed_model, typed = _typed_module(tmp_path)  # installs the namespace handlers
    typed_doc = (f'<n:r xmlns:n="{TNS}" {_XSI_DECL}>\n<n:v xsi:type="n:D">{_D_VALUE}</n:v>'
                 '\n<n:v xsi:type="n:D"/></n:r>')
    cases = [
        (module, PO_DOC, "strict"),
        (module, PO_DOC.replace("<note>", "<bogus/><note>"), "strict"),
        (module, "<zzz/>", "lenient"),
        (module, "<zzz/>", "strict"),
        (module, "<zzz/><", "lenient"),
        (module, PO_DOC[:-10], "strict"),
        (module, PO_DOC + "<", "lenient"),
        # A warning at an empty-element END, at a bad attribute value, at stray text.
        (module, PO_DOC.replace("<item>", "<item\n/><item>"), "lenient"),
        (module, PO_DOC.replace("<item>", "<item\n/><item>"), "strict"),
        (module, PO_DOC.replace('id="7"', 'id="x"'), "lenient"),
        (module, PO_DOC.replace('id="7"', 'id="x"'), "strict"),
        (module, PO_DOC.replace("<note>", "stray\n<note>"), "lenient"),
        (module, PO_DOC.replace("<note>", "stray\n<note>"), "strict"),
        (typed, typed_doc, "lenient"),
        (typed, typed_doc, "strict"),
        (typed, typed_doc.replace('"n:D"/>', '"zz:D"/>'), "lenient"),
    ]
    gc.collect()
    gc.disable()
    try:
        for parser, doc, mode in cases:
            try:
                parser.parse_document(doc, mode=mode)
            except SlimbindError:
                pass
            assert gc.collect() == 0, (doc, mode)
    finally:
        gc.enable()


# ---------------------------------------------------------------- positions read on demand

# E's attribute ü is required, and W's one child collapses into R.w, so an
# empty-element tag may end with a missing attribute or a missing wrapped
# element; every name is in ISO-8859-1.
_POSITIONS_BODY = """
  <xs:element name="r" type="tns:R"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:element name="é" type="tns:E" minOccurs="0" maxOccurs="unbounded"/>
      <xs:element name="w" type="tns:W" minOccurs="0"/>
      <xs:element name="v" type="xs:double" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
    <xs:attribute name="n" type="xs:int"/>
  </xs:complexType>
  <xs:complexType name="E">
    <xs:attribute name="ü" type="xs:string" use="required"/>
    <xs:attribute name="n" type="xs:integer"/>
  </xs:complexType>
  <xs:complexType name="W">
    <xs:sequence><xs:element name="ø" type="xs:int"/></xs:sequence>
  </xs:complexType>"""


@pytest.fixture(scope="module")
def positions_parsers(tmp_path_factory):
    """(generated parse_document, oracle parse_document) of _POSITIONS_BODY."""
    from oracle import Interpreter
    corpus = [f'<r xmlns="{TNS}" n="1"><é ü="x" n="2"/><w><ø>1</ø></w><v>1.5</v></r>']
    model, module, _, _ = build_and_import(schema_of(_POSITIONS_BODY), corpus,
                                           tmp_path_factory.mktemp("positions"))
    assert model.collapsed_classes  # R.w reads through its wrapper
    return module.parse_document, Interpreter(model).parse_document


# The ways a document reaches the reader: (label, str -> source).  expat
# decodes the two unmarked byte forms by their declaration, or as UTF-8.
_ENCODINGS = {
    "str": lambda doc: doc,
    "utf-8": lambda doc: doc.encode("utf-8"),
    "utf-8 declared": lambda doc: (
        f'<?xml version="1.0" encoding="UTF-8"?>\n{doc}'.encode("utf-8")),
    "utf-16-le bom": lambda doc: codecs.BOM_UTF16_LE + doc.encode("utf-16-le"),
    "utf-16-be bom": lambda doc: codecs.BOM_UTF16_BE + doc.encode("utf-16-be"),
    "utf-16-le": lambda doc: doc.encode("utf-16-le"),
    "iso-8859-1 declared": lambda doc: (
        f"<?xml version='1.0' encoding='ISO-8859-1'?>\r\n{doc}"
        .encode("latin-1", "xmlcharrefreplace")),
}
_BREAK = st.sampled_from([" ", "\n", "\r", "\r\n", " \r\n\t", "\n\n "])
# U+0100 U+3C00 U+0100 holds a '<' byte off the UTF-16 character grid in either byte order.
_OFF_GRID = "\u0100\u3c00\u0100"
_VALUE = st.text("a1-. ü名\u0100\u3c00\U0001d11e", max_size=4)
_INTEGER_FORM = st.sampled_from(["7", " -3 ", "x", "1.5", "\u0661", "\U0001d7ce", "",
                                 _OFF_GRID])
_DOUBLE_FORM = st.sampled_from(["1.5", "5.", ".5", "-2E3", "bad", "\U0001d11e", ""])
# Between the children of R: nothing, line breaks, or stray text.
_BETWEEN = st.sampled_from(["", "\n", "\r\n  ", "\r", "stray", "ü名\r\n\U0001d11e text",
                            "\n<!-- c -->x"])


@st.composite
def _attributes(draw):
    """Attributes of an E, each after a line break or space; ü may be missing."""
    items = []
    if draw(st.booleans()):
        items.append(f'ü="{draw(_VALUE)}"')
    if draw(st.booleans()):
        items.append(f'n="{draw(_INTEGER_FORM)}"')
    items = draw(st.permutations(items))
    return "".join(draw(_BREAK) + item for item in items) + draw(st.sampled_from(["", "\r\n"]))


_CHILD = st.one_of(
    st.builds("<é{}/>".format, _attributes()),
    st.builds("<é{}>{}</é>".format, _attributes(), _BETWEEN),
    st.builds("<w>{}<ø>{}</ø>{}</w>".format, _BETWEEN, _INTEGER_FORM, _BETWEEN),
    st.builds("<w{}/>".format, st.sampled_from(["", "\n", "\r\n "])),
    st.builds("<v>{}</v>".format, _DOUBLE_FORM),
    st.builds("<v{}/>".format, st.sampled_from(["", "\r"])),
    st.sampled_from(["<zz\n/>", "<zz>t<é/></zz>", "<\U00010000/>"]),
)


@st.composite
def _positions_document(draw):
    children = draw(st.lists(st.tuples(_BETWEEN, _CHILD), max_size=6))
    body = "".join(between + child for between, child in children)
    return f'<r xmlns="{TNS}"{draw(_BREAK)}n="{draw(_INTEGER_FORM)}">{body}{draw(_BETWEEN)}</r>'


_POSITIONS_EXAMPLE = (f'<r xmlns="{TNS}"\r\nn="1">\n  <é\r\n  n="x"\r  ü="名"/>stray\r\n'
                      '<é\n n="2"/><w>\U0001d11e<ø>1</ø></w><w\n/><v>bad</v>'
                      f'\n <é ü="\U0001d11e" n=" 5 "\n/>\r\n<é n="{_OFF_GRID}"/></r>')


@settings(max_examples=200, deadline=None)
@given(doc=_positions_document(), encoding=st.sampled_from(sorted(_ENCODINGS)))
@example(doc=_POSITIONS_EXAMPLE, encoding="str")
@example(doc=_POSITIONS_EXAMPLE, encoding="utf-8")
@example(doc=_POSITIONS_EXAMPLE, encoding="utf-8 declared")
@example(doc=_POSITIONS_EXAMPLE, encoding="utf-16-le bom")
@example(doc=_POSITIONS_EXAMPLE, encoding="utf-16-be bom")
@example(doc=_POSITIONS_EXAMPLE, encoding="utf-16-le")
@example(doc=_POSITIONS_EXAMPLE, encoding="iso-8859-1 declared")
def test_positions_read_on_demand_equal_the_oracle(positions_parsers, doc, encoding):
    """Object, warnings with their line and column, or error, as the oracle gives them.

    The generated parser reads a START's position only for a warning,
    recovers an empty-element tag's from its bytes, and reads a text run's
    only where it may be reported; the oracle reads every event's.
    """
    parse, oracle = positions_parsers
    source = _ENCODINGS[encoding](doc)
    for mode in ("lenient", "strict"):
        assert _outcome(parse, source, mode) == _outcome(oracle, source, mode), mode


def test_expat_reports_an_empty_element_tag_as_the_recovery_expects():
    """What this expat reports for ``<é a="ü"/>``: its START at the '<', its END past '/>'.

    Columns are 0-based and count characters, not bytes.  A different
    expat that breaks this breaks :func:`runtime._empty_tag_start`.
    """
    from xml.parsers import expat
    parser = expat.ParserCreate("UTF-8", " ")
    seen = []

    def at(event):
        return lambda name, *_: seen.append((event, name, parser.CurrentLineNumber,
                                             parser.CurrentColumnNumber,
                                             parser.CurrentByteIndex))

    parser.StartElementHandler, parser.EndElementHandler = at("start"), at("end")
    parser.Parse('<r>\n  <é a="ü"/></r>'.encode("utf-8"), True)
    parser.StartElementHandler = parser.EndElementHandler = None
    assert seen[1:3] == [("start", "é", 2, 2, 6), ("end", "é", 2, 12, 18)]


def test_warnings_at_multi_line_empty_element_tags_read_in_linear_time(positions_parsers):
    # Recovering each tag's position from the document before it would
    # decode about 2 * 10^9 characters here: seconds, not a fraction of one.
    parse, oracle = positions_parsers
    tag = '<é n="1"\r\n   n\u00e9="ü"\n/>'  # no ü attribute
    doc = f'<r xmlns="{TNS}">\n' + "\n".join([tag] * 20_000) + "\n</r>"
    began = time.perf_counter()
    _obj, warnings = parse(doc, mode="lenient", source_name="m.xml")
    assert time.perf_counter() - began < 2.0
    assert len(warnings) == 20_000
    assert {w.code for w in warnings} == {"MISSING_REQUIRED"}
    _want, expected = oracle(doc, mode="lenient", source_name="m.xml")
    assert [w.format() for w in (warnings[0], warnings[-1])] == \
        [w.format() for w in (expected[0], expected[-1])]


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
    defined = {}  # the tables as the package module defined them, and its entry point
    bind_parsers = runtime.bind_parsers

    def spy(names, package_format):
        defined.update(roots=names["_ROOTS"], d0=names["_D0"], rows=names["_ROWS"])
        defined["entry"] = bind_parsers(names, package_format)
        return defined["entry"]

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
    assert (module._ROOTS, module._D0, module._ROWS) == \
        (defined["roots"], defined["d0"], defined["rows"]) == (
            "0 r|R\n", "0 h||string\n0 m||string\n",
            "_D0|h|*|dispatch|h\nid||?|attribute|integer\n")
    assert module.parse_document is defined["entry"]
    assert root_table(module.parse_document) == {f"{TNS} r": (module.R, None, None)}
    binding = module.R._binding
    assert list(binding[2]) == ["id"] and list(binding[3]) == [f"{TNS} h", f"{TNS} m"]
    # Binding a copy of the namespace reads the same tables, changing none,
    # and makes new classes like the package's.
    tables = ("_NS", "_ROWS", "_CLASSES", "_D0", "_ROOTS")
    before = [getattr(module, name) for name in tables]
    names = dict(vars(module))
    assert root_table(bind_parsers(names, runtime.PACKAGE_FORMAT)) == \
        {f"{TNS} r": (names["R"], None, None)}
    assert [getattr(module, name) for name in tables] == [names[name] for name in tables] \
        == before
    for c in model.classes:
        made, cls = names[c.name], getattr(module, c.name)
        assert made is not cls and made.__name__ == cls.__name__ == c.name
        assert (made.__slots__, made._rows, made._fields, made._binding) == \
            (cls.__slots__, cls._rows, cls._fields, cls._binding)
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
    assert '_D0 = """' in artifacts[0].content
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


def tuple_tables(source, model):
    """A generated package in the format before packed tables: its twin.

    ``_ROWS`` and ``_CLASSES`` are tuples, the rows' items joined by tabs
    and each class entry ``(name, base, slots, rows)`` naming its own
    fields, taken from ``model``, as slots.  The dispatch tables and
    ``_ROOTS`` are dict displays naming the classes and conversions, each
    ``xsi:type`` table written where it is used.  Rows and indices are
    the package's own, so the twin's classes index the same rows.
    """
    body = ast.parse(source).body
    namespaces = assigned(body, "_NS")
    texts = {node.targets[0].id: ast.literal_eval(node.value) for node in body
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)}
    convs = set()

    def expat(key):
        index, space, local = key.partition(" ")
        return runtime.expat_name(namespaces[int(index)], local) if space else key

    def display(name):
        entries = []
        for line in packed_lines(texts[name]):
            key, cls, conv, by_type = (line.split("|") + ["", "", ""])[:4]
            convs.update([f"conv_{conv}"] if conv else [])
            entries.append(f"{expat(key)!r}: ({cls or None}, {f'conv_{conv}' if conv else None}, "
                           f"{display(by_type) if by_type else None})")
        return "{" + ", ".join(entries) + "}"

    fields = {c.name: tuple(f.name for f in c.fields) for c in model.classes}
    rows = tuple(row.replace("|", "\t") for row in packed_lines(texts["_ROWS"]))
    classes = tuple((name, base, " ".join(fields[name]), indices) for name, base, indices in
                    (line.split("|") for line in packed_lines(texts["_CLASSES"])))
    tables = "".join(f"{name} = {display(name)}\n" for name in texts
                     if re.fullmatch(r"_D\d+|_ROOTS", name))
    head = source[:source.index("_ROWS = ")].replace(
        "import ", "import build_classes, parse_root, "
        + "".join(f"{conv}, " for conv in sorted(convs)), 1)
    return (f"{head}_ROWS = {rows!r}\n_CLASSES = {classes!r}\nbuild_classes(globals())\n"
            f"{tables}bind_parsers(globals())\n{_TWIN_ENTRY}")


# The entry point of a tuple_tables twin, which defines its own.
_TWIN_ENTRY = '''

def parse_document(source, mode="strict", source_name="<input>"):
    """Parse one document; returns (typed object, warnings)."""
    return parse_root(_ROOTS, source, mode, source_name)
'''


class _DictTargets(runtime._Targets):
    """What rows name in a package whose tables are dicts."""

    def table(self, name, _line, _where):
        return self.packed[name]


def _build_tuple_classes(names):
    """``build_classes`` for :func:`tuple_tables`: each entry names its slots."""
    made = {}
    for name, base, slots, rows in names["_CLASSES"]:
        names[name] = made[name] = type(name, (made[base] if base else Record,), {
            "__module__": names["__name__"],
            "__slots__": tuple(map(sys.intern, slots.split())),
            "_rows": tuple(map(int, rows.split()))})


def _bind_tuple_tables(names):
    """``bind_parsers`` for :func:`tuple_tables`: rows split at tabs, tables dicts."""
    rows = [runtime._split_row(row.replace("\t", "|"), names["_NS"]) for row in names["_ROWS"]]
    classes = {name: names[name] for name, *_entry in names["_CLASSES"]}
    targets = _DictTargets(names, classes, names["_NS"])
    reads = [targets.read(row, line) for row, line in zip(rows, names["_ROWS"])]
    last = {index for index, row in enumerate(rows) if runtime._binds_last(row)}
    for cls in classes.values():
        runtime._bind(cls, rows, reads, last)


@contextlib.contextmanager
def tuple_table_runtime():
    """``slimbind.runtime`` binding packages in the :func:`tuple_tables` format.

    The runtime has no ``build_classes``; this one lends it one for the while.
    """
    saved = runtime.bind_parsers
    runtime.build_classes, runtime.bind_parsers = _build_tuple_classes, _bind_tuple_tables
    try:
        yield
    finally:
        runtime.bind_parsers = saved
        del runtime.build_classes


def exec_twin(source, name):
    """The namespace of ``source``, a :func:`tuple_tables` twin, bound as its format was."""
    names = {"__name__": name}
    with tuple_table_runtime():
        exec(compile(source, "<twin>", "exec"), names)
    return names


def class_statements(source):
    """A package in the :func:`tuple_tables` format, each ``_CLASSES`` entry a ``class`` statement.

    That is the format before ``_CLASSES``: no table, no ``build_classes``
    call, and ``Record`` imported.
    """
    statements = "".join(
        f"\n\nclass {name}({base or 'Record'}):\n"
        f"    __slots__ = {tuple(slots.split())!r}\n"
        f"    _rows = {tuple(map(int, rows.split()))!r}\n"
        for name, base, slots, rows in assigned(ast.parse(source).body, "_CLASSES"))
    source, count = re.subn(r"^_CLASSES = .*\nbuild_classes\(globals\(\)\)\n",
                            lambda _: statements + "\n", source, flags=re.M)
    assert count == 1
    return source.replace("import ", "import Record, ", 1).replace("build_classes, ", "")


def _import_text(tmp_path, monkeypatch, text):
    """Import ``text`` as a module of a fresh name."""
    monkeypatch.syspath_prepend(os.fspath(tmp_path))
    name = unique_model_name("rows")
    (tmp_path / f"{name}.py").write_text(text)
    return importlib.import_module(name)


# A package in the current format: _NS ('urn:fix',), the one row
# '0 v|v|?|simple|string', the class line 'R||0' and the root line '0 r|R'.
_STAMP = f"bind_parsers(globals(), {runtime.PACKAGE_FORMAT})"
_PACKED_PACKAGE = f"""\
from slimbind.runtime import bind_parsers
_NS = ('urn:fix',)
_ROWS = '0 v|v|?|simple|string\\n'
_CLASSES = 'R||0\\n'
_ROOTS = '0 r|R\\n'
parse_document = {_STAMP}
"""
_NO_STAMP = _PACKED_PACKAGE.replace(_STAMP, "bind_parsers(globals())")

# The first format: rows keyed by (namespace, local) in class statements.
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


_NO_BUILD_CLASSES = "cannot import name 'build_classes' from 'slimbind.runtime'"


def _stamp_refusal(found):
    """The ``match=`` pattern of the refusal of a package stamped ``found``."""
    return (f"package format {re.escape(found)}, but this runtime reads format "
            f"{runtime.PACKAGE_FORMAT}; regenerate")


@pytest.mark.parametrize("package, refusal", [
    (_NO_STAMP, "None"),
    *[(_PACKED_PACKAGE.replace(_STAMP, f"bind_parsers(globals(), {stamp})"), stamp)
      for stamp in (f"{runtime.PACKAGE_FORMAT - 1}", f"{runtime.PACKAGE_FORMAT + 1}",
                    f"'{runtime.PACKAGE_FORMAT}'")],
    (_NO_STAMP.replace("import bind_parsers\n", "import bind_parsers, build_classes\n").replace(
        "\n_ROOTS = ", "\nbuild_classes(globals())\n_ROOTS = "), None),
], ids=["no-stamp", "older-stamp", "newer-stamp", "stamp-as-text", "build_classes-import"])
def test_package_not_stamped_with_the_runtime_format_is_refused(
        tmp_path, monkeypatch, package, refusal):
    """A package passes the format it was written in; every earlier format passes none.

    So its tables are never read.  One whose classes were made by a
    ``build_classes`` call fails at importing it: the runtime has no such
    name.  The package stamped with the runtime's format imports and parses.
    """
    match = _stamp_refusal(refusal) if refusal else _NO_BUILD_CLASSES
    with pytest.raises(ImportError, match=match):
        _import_text(tmp_path, monkeypatch, package)
    module = _import_text(tmp_path, monkeypatch, _PACKED_PACKAGE)
    obj, warnings = module.parse_document('<r xmlns="urn:fix"><v>x</v></r>')
    assert (obj.v, warnings) == ("x", [])


def test_package_in_the_tuple_keyed_format_is_refused(tmp_path, monkeypatch):
    """A package emitted with (namespace, local) keys would match no element.

    It predates the stamp, so it is refused before its tables are read; the
    same package in the current format imports and parses.
    """
    with pytest.raises(ImportError, match=_stamp_refusal("None")):
        _import_text(tmp_path, monkeypatch, _OLD_FORMAT_PACKAGE)
    module = _import_text(tmp_path, monkeypatch, _PACKED_PACKAGE)
    obj, warnings = module.parse_document('<r xmlns="urn:fix"><v>x</v></r>')
    assert (obj.v, warnings) == ("x", [])


# The formats between the first and _CLASSES: keyed by expat names, each
# field row a tuple, then a string, in its class; then rows indexed in _ROWS.
_TUPLE_ROWS_PACKAGE = re.sub(r"\('urn:fix', '(\w+)'\)", r"'urn:fix \1'", _OLD_FORMAT_PACKAGE)
_STRING_ROWS_PACKAGE = _TUPLE_ROWS_PACKAGE.replace(
    "('urn:fix v', 'v', '?', 'simple', 'string'),", "'urn:fix v\\tv\\t?\\tsimple\\tstring',")
_CLASS_STATEMENTS_PACKAGE = _STRING_ROWS_PACKAGE.replace(
    "'urn:fix v\\tv\\t?\\tsimple\\tstring',", "0,").replace(
    "parse_root\n",
    "parse_root\n_NS = ('urn:fix',)\n_ROWS = ('0 v\\tv\\t?\\tsimple\\tstring',)\n", 1)


def test_package_with_tuple_rows_is_refused(tmp_path, monkeypatch):
    """Field rows written as tuples, as earlier versions wrote them, are refused."""
    assert "('urn:fix v', 'v'," in _TUPLE_ROWS_PACKAGE
    with pytest.raises(ImportError, match=_stamp_refusal("None")):
        _import_text(tmp_path, monkeypatch, _TUPLE_ROWS_PACKAGE)


def test_package_with_string_rows_is_refused(tmp_path, monkeypatch):
    """Field rows written as strings in their class, as earlier versions wrote them."""
    assert "'urn:fix v\\tv\\t" in _STRING_ROWS_PACKAGE
    with pytest.raises(ImportError, match=_stamp_refusal("None")):
        _import_text(tmp_path, monkeypatch, _STRING_ROWS_PACKAGE)


def test_package_with_class_statements_is_refused(tmp_path, monkeypatch):
    """Record classes written as ``class`` statements, as earlier versions wrote them."""
    assert "_ROWS = ('0 v" in _CLASS_STATEMENTS_PACKAGE
    assert "class R(Record)" in _CLASS_STATEMENTS_PACKAGE
    with pytest.raises(ImportError, match=_stamp_refusal("None")):
        _import_text(tmp_path, monkeypatch, _CLASS_STATEMENTS_PACKAGE)


def test_package_that_makes_its_classes_before_binding_is_refused(tmp_path, monkeypatch):
    """A ``build_classes(globals())`` call after ``_CLASSES``, as the format before one call wrote.

    The golden package, in that layout, fails at importing ``build_classes``;
    as it is, it imports.
    """
    golden = (GOLDEN_DIR / "__init__.py.golden").read_text()
    stamp = f"bind_parsers(globals(), {runtime.PACKAGE_FORMAT})"
    older = golden.replace("import bind_parsers\n", "import bind_parsers, build_classes\n", 1)
    older = older.replace('"""\n_D0 = ', '"""\nbuild_classes(globals())\n_D0 = ', 1)
    older = older.replace(stamp, "bind_parsers(globals())", 1)
    assert older.count("build_classes") == 2 and stamp not in older
    with pytest.raises(ImportError, match=_NO_BUILD_CLASSES):
        _import_text(tmp_path, monkeypatch, older)
    module = _import_text(tmp_path, monkeypatch, golden)
    assert module.CartType.__slots__ == ("sku", "coupon", "pay")


def test_a_package_in_format_1_is_refused(tmp_path, monkeypatch):
    """Format 1 bound ``_ROOT_TABLE`` and defined ``parse_document`` over it.

    The golden package, in that layout, is refused by its stamp.
    """
    golden = (GOLDEN_DIR / "__init__.py.golden").read_text()
    entry = f"parse_document = bind_parsers(globals(), {runtime.PACKAGE_FORMAT})\n"
    older = golden.replace("import bind_parsers\n", "import bind_parsers, parse_root\n", 1)
    older = older.replace(entry, "_ROOT_TABLE = bind_parsers(globals(), 1)\n"
                          + _TWIN_ENTRY.replace("_ROOTS", "_ROOT_TABLE"), 1)
    assert older.count("_ROOT_TABLE") == 2 and entry not in older
    with pytest.raises(ImportError, match=_stamp_refusal("1")):
        _import_text(tmp_path, monkeypatch, older)


def test_the_entry_point_is_named_as_the_package_s_own(tmp_path, monkeypatch):
    """The package is its tables and one call; the call returns ``parse_document``.

    It has the signature, docstring and name the package's own ``def``
    once gave it, and is named in the package's module; a parse goes
    through it straight into ``parse_root``, one frame.
    """
    def parse_document(source, mode="strict", source_name="<input>"):
        """Parse one document; returns (typed object, warnings)."""

    schema, docs = shared_head_model(2)
    model, module, _, (artifact,) = build_and_import(schema, docs, tmp_path)
    source = artifact.content
    assert re.findall(r"^(?:from|import) .*", source, re.M) == \
        ["from slimbind.runtime import bind_parsers"]
    assert ast.unparse(ast.parse(source).body[-1]) == \
        f"parse_document = bind_parsers(globals(), {runtime.PACKAGE_FORMAT})"
    assert "def " not in source and "_ROOT_TABLE" not in source
    assert "dispatch_imports" not in emitter.build_render_context(model)
    entry = module.parse_document
    assert (inspect.signature(entry), entry.__doc__, entry.__name__) == \
        (inspect.signature(parse_document), parse_document.__doc__, "parse_document")
    assert (entry.__module__, entry.__qualname__) == (module.__name__, "parse_document")
    assert repr(entry).startswith("<function parse_document at ")
    callers = []
    parse_root = runtime.parse_root

    def spy(*args):
        callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code))
        return parse_root(*args)

    monkeypatch.setattr(runtime, "parse_root", spy)
    assert module.parse_document(docs[0]) == parse_root(root_table(entry), docs[0])
    this = sys._getframe().f_code
    assert callers == [("parse_document", this)]


def test_build_classes_makes_no_class():
    """The runtime has no ``build_classes``: calling it fails at its import, and binds nothing."""
    assert not hasattr(runtime, "build_classes")
    names = {"__name__": "older", "_NS": ("urn:fix",), "_ROWS": "0 v|v|?|simple|string\n",
             "_CLASSES": "R||0\n", "_ROOTS": "0 r|R\n", "__builtins__": __builtins__}
    before = dict(names)
    with pytest.raises(ImportError, match=_NO_BUILD_CLASSES):
        exec("from slimbind.runtime import build_classes\nbuild_classes(globals())\n", names)
    assert names == before


def test_package_without_a_class_table_is_refused(tmp_path, monkeypatch):
    package = re.sub(r"^_CLASSES = .*\n", "", _PACKED_PACKAGE,
                     flags=re.M)
    assert "_CLASSES" not in package
    with pytest.raises(ImportError, match="no class table _CLASSES; regenerate"):
        _import_text(tmp_path, monkeypatch, package)


@pytest.mark.parametrize("base", ["S", "R", "Record", "Q"])
def test_package_with_a_class_whose_base_is_no_earlier_entry_is_refused(
        tmp_path, monkeypatch, base):
    """A base is the name of an entry before its class: here only ``S`` is one, and later."""
    package = _PACKED_PACKAGE
    entry = "'R||0\\n'"
    assert entry in package
    later = package.replace(entry, f"'R|{base}|0\\nS||\\n'")
    with pytest.raises(ImportError, match=f"class R whose base '{base}' is not an earlier "
                       "entry of _CLASSES; regenerate"):
        _import_text(tmp_path, monkeypatch, later)
    # Listed before R, S is a base R may have.
    earlier = package.replace(entry, "'S||\\nR|S|0\\n'")
    module = _import_text(tmp_path, monkeypatch, earlier)
    assert module.R.__bases__ == (module.S,) and module.S.__bases__ == (Record,)


@pytest.mark.parametrize("row", [
    "1", "-1", "True", "0.0", "'0'", repr("urn:fix v\tv\t?\tsimple\tstring"),
    "('urn:fix v', 'v', '?', 'simple', 'string')"])
def test_package_with_a_row_that_indexes_nothing_is_refused(tmp_path, monkeypatch, row):
    """Each of a class's rows is a decimal index into ``_ROWS``, which holds one row here.

    The class's line holds ``row`` written out where its index was.
    """
    package = _PACKED_PACKAGE
    assert "'R||0\\n'" in package
    with pytest.raises(ImportError, match=r"field row .* in R that is not an index into "
                       "_ROWS; regenerate"):
        _import_text(tmp_path, monkeypatch, package.replace(
            "'R||0\\n'", repr(f"R||{row}\n")))


def test_package_without_a_row_table_is_refused(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.fspath(tmp_path))
    old = unique_model_name("rows")
    package = re.sub(r"^_ROWS = .*\n", "", _PACKED_PACKAGE, flags=re.M)
    (tmp_path / f"{old}.py").write_text(package)
    with pytest.raises(ImportError, match="no row table _ROWS; regenerate"):
        importlib.import_module(old)


def test_package_without_a_namespace_table_is_refused(tmp_path, monkeypatch):
    """A package with no ``_NS`` was written before rows named namespaces by index."""
    package = re.sub(r"^_NS = .*\n", "", _PACKED_PACKAGE, flags=re.M)
    with pytest.raises(ImportError, match="no namespace table _NS; regenerate"):
        _import_text(tmp_path, monkeypatch, package)


@pytest.mark.parametrize("index", ["x", "-0", "+0", "0x0", "\u0660", "urn:fix", "1", "12"])
def test_package_with_a_row_whose_namespace_is_no_index_into_ns_is_refused(
        tmp_path, monkeypatch, index):
    """``_NS`` holds one namespace here, so only the index 0 names one."""
    package = _PACKED_PACKAGE.replace("'0 v|", f"'{index} v|")
    assert f"'{index} v|" in package
    with pytest.raises(ImportError, match=f"field row '{re.escape(index)} v.* whose namespace "
                       ".* is not an index into _NS; regenerate"):
        _import_text(tmp_path, monkeypatch, package)


def test_package_with_a_tuple_row_table_is_refused(tmp_path, monkeypatch):
    """A stamped package whose ``_ROWS`` is a tuple of strings, not one packed string."""
    package = _PACKED_PACKAGE.replace("_ROWS = '0 v|v|?|simple|string\\n'",
                                        "_ROWS = ('0 v\\tv\\t?\\tsimple\\tstring',)")
    assert "_ROWS = (" in package
    with pytest.raises(ImportError, match="has a row table _ROWS that is a tuple; regenerate"):
        _import_text(tmp_path, monkeypatch, package)


def test_package_with_a_tuple_class_table_is_refused(tmp_path, monkeypatch):
    package = _PACKED_PACKAGE.replace("_CLASSES = 'R||0\\n'",
                                        "_CLASSES = (('R', '', 'v', '0'),)")
    assert "_CLASSES = ((" in package
    with pytest.raises(ImportError, match="has a class table _CLASSES that is a tuple; "
                       "regenerate"):
        _import_text(tmp_path, monkeypatch, package)


def test_package_with_a_dict_root_table_is_refused(tmp_path, monkeypatch):
    package = _PACKED_PACKAGE.replace("_ROOTS = '0 r|R\\n'",
                                        "_ROOTS = {'urn:fix r': ('R', None, None)}")
    assert "_ROOTS = {" in package
    with pytest.raises(ImportError, match="has a root table _ROOTS that is a dict; regenerate"):
        _import_text(tmp_path, monkeypatch, package)


def test_package_with_a_dict_dispatch_table_is_refused(tmp_path, monkeypatch):
    """A row reads through ``_D0``, written as a dict display."""
    package = _PACKED_PACKAGE.replace(
        "'0 v|v|?|simple|string\\n'", "'_D0|v|?|dispatch|v\\n'").replace(
        "\n_ROOTS = ", "\n_D0 = {'urn:fix v': (None, None, None)}\n_ROOTS = ")
    assert "_D0 = {" in package
    with pytest.raises(ImportError, match="has a dispatch table _D0 that is a dict; "
                       "regenerate"):
        _import_text(tmp_path, monkeypatch, package)


class _CountedRow(str):
    """A ``_ROWS`` line that counts, in ``splits`` by its text, every split of it."""

    def __new__(cls, text, splits):
        self = super().__new__(cls, text)
        self.splits = splits
        return self

    def split(self, *args):
        self.splits[str(self)] += 1
        return super().split(*args)

    def partition(self, sep):
        self.splits[str(self)] += 1
        return super().partition(sep)

    def rpartition(self, sep):
        self.splits[str(self)] += 1
        return super().rpartition(sep)


class _CountedRows(_CountedRow):
    """A ``_ROWS`` table whose lines are :class:`_CountedRow`."""

    def split(self, sep):
        return [_CountedRow(line, self.splits) for line in str.split(self, sep)]


def test_each_row_is_split_once_per_import(tmp_path, monkeypatch):
    """A derived class shares its base's rows; each row is still split once, by one splitter.

    The package's one runtime call sees a ``_ROWS`` whose lines count every
    split of their text and every match of the row pattern against it, and
    :func:`runtime._split_row` counts its calls.
    """
    calls, splits = Counter(), Counter()
    split_row, bind_parsers, row_line = runtime._split_row, runtime.bind_parsers, \
        runtime._ROW_LINE

    def spy(row, namespaces):
        calls[row] += 1
        return split_row(row, namespaces)

    def counted(names, package_format):
        names["_ROWS"] = _CountedRows(names["_ROWS"], splits)
        return bind_parsers(names, package_format)

    class CountedRowLine:
        @staticmethod
        def fullmatch(row):
            splits[str(row)] += 1
            return row_line.fullmatch(row)

    monkeypatch.setattr(runtime, "_split_row", spy)
    monkeypatch.setattr(runtime, "bind_parsers", counted)
    monkeypatch.setattr(runtime, "_ROW_LINE", CountedRowLine)
    body, doc, options = RECURSIVE_CASES["base holding its derived type"]
    doc = doc.replace(">", f' xmlns="{TNS}">', 1)
    _model, module, _, _ = build_and_import(schema_of(body), [doc], tmp_path, options)
    assert module.D._rows[:2] == module.B._rows
    lines = packed_lines(str(module._ROWS))
    assert calls == Counter(lines) and set(calls.values()) == {1}
    assert splits == Counter(lines) and set(splits.values()) == {1}


@pytest.mark.parametrize("index", ["1", "12"])
def test_package_with_a_dispatch_line_whose_namespace_is_no_index_into_ns_is_refused(
        tmp_path, monkeypatch, index):
    """``_NS`` holds one namespace here; a line that is no ``key|...`` line is refused too."""
    package = _PACKED_PACKAGE.replace("'0 r|R\\n'", f"'{index} r|R\\n'")
    with pytest.raises(ImportError, match=f"line '{index} r|R' of _ROOTS whose namespace "
                       f"'{index}' is not an index into _NS; regenerate"):
        _import_text(tmp_path, monkeypatch, package)


@pytest.mark.parametrize("line", ["x0 r|R", "0  r|R", "0 r|R|||", " r|R", ""])
def test_package_with_a_malformed_dispatch_line_is_refused(tmp_path, monkeypatch, line):
    package = _PACKED_PACKAGE.replace("'0 r|R\\n'", repr(f"{line}\n"))
    with pytest.raises(ImportError, match=f"line {re.escape(repr(line))} of _ROOTS that is "
                       "not key|class|conversion|xsi:type table; regenerate"):
        _import_text(tmp_path, monkeypatch, package)


@pytest.mark.parametrize("line", ["R|", "R||0|", "|R|0", "R"])
def test_package_with_a_malformed_class_line_is_refused(tmp_path, monkeypatch, line):
    package = _PACKED_PACKAGE.replace("'R||0\\n'", repr(f"{line}\n"))
    with pytest.raises(ImportError, match=f"class line {re.escape(repr(line))} that is not "
                       "name|base|rows; regenerate"):
        _import_text(tmp_path, monkeypatch, package)


@pytest.mark.parametrize("what, old, new, table, line", [
    ("class", "'0 r|R\\n'", "'0 r|Q\\n'", "_ROOTS", "0 r|Q"),
    ("class", "'0 r|R\\n'", "'0 r|Record\\n'", "_ROOTS", "0 r|Record"),
    ("class", "|simple|string", "|class|Q", "_ROWS", "0 v|v|?|class|Q"),
    ("conversion", "'0 r|R\\n'", "'0 r||float\\n'", "_ROOTS", "0 r||float"),
    ("conversion", "|simple|string", "|simple|float", "_ROWS", "0 v|v|?|simple|float"),
    ("conversion", "|simple|string", "|attribute|", "_ROWS", "0 v|v|?|attribute|"),
    ("table", "'0 r|R\\n'", "'0 r|R||_D0\\n'", "_ROOTS", "0 r|R||_D0"),
    ("table", "'0 r|R\\n'", "'0 r|R||_NS\\n'", "_ROOTS", "0 r|R||_NS"),
    ("table", "'0 v|v|?|simple|string", "'_D7|v|?|dispatch|v", "_ROWS", "_D7|v|?|dispatch|v"),
    ("table", "|simple|string", "|ignore|_ROWS", "_ROWS", "0 v|v|?|ignore|_ROWS"),
], ids=lambda value: value if isinstance(value, str) and "|" in value else None)
def test_package_with_a_line_naming_nothing_it_defines_is_refused(
        tmp_path, monkeypatch, what, old, new, table, line):
    """A line's class is a ``_CLASSES`` entry, its conversion a key of ``CONVERSIONS``,
    and its table a packed ``_D<n>`` or ``_ROOTS`` the package defines."""
    package = _PACKED_PACKAGE
    assert old in package
    with pytest.raises(ImportError, match=f"line {re.escape(repr(line))} of {table} that "
                       f"names an unknown {what} .*; regenerate"):
        _import_text(tmp_path, monkeypatch, package.replace(old, new))


_NOT_A_ROW = "field row {!r} that is not key|slot|occurs|read|target"


_MALFORMED_LINES = [
    ("_ROWS", "0 v|v|?|bogus|string", _NOT_A_ROW),
    ("_ROWS", "0 v|v|?", _NOT_A_ROW),
    ("_ROWS", "v|v|x|simple|string", _NOT_A_ROW),
    ("_ROWS", "v|v|?|class|R|junk", _NOT_A_ROW),
    ("_ROWS", "v|v|?|simple|string|extra", _NOT_A_ROW),
    ("_ROWS", "v|v|?|collapse|simple", _NOT_A_ROW),
    ("_ROWS", "v|v|?|collapse|simple|string", _NOT_A_ROW),
    ("_ROWS", "v|v|?|collapse|simple|string|", _NOT_A_ROW),
    ("_ROWS", "||?|simple|string", "field row {!r} whose slot '' is not a field name"),
    ("_ROWS", "v|1x|?|simple|string", "field row {!r} whose slot '1x' is not a field name"),
    ("_ROWS", "v|_rows|?|simple|string",
     "field row {!r} whose slot '_rows' is not a field name"),
    ("_CLASSES", "R||0\nR||0", "class line 'R||0' whose name is taken"),
    ("_CLASSES", "parse_root||0", "class line 'parse_root||0' that is not name|base|rows"),
    ("_ROOTS", "0 r|R\n0 s|R", "line '0 s|R' of _ROOTS with no line end"),
]


@pytest.mark.parametrize("table, line, refusal", _MALFORMED_LINES,
                         ids=[line.replace("\n", "/") for _table, line, _ in _MALFORMED_LINES])
def test_package_with_a_malformed_line_is_refused(table, line, refusal):
    """Each line is checked, and the refusal names it, before any class is made.

    ``line`` takes the place of the lines of ``table`` in the packed
    package, ended by a newline except in ``_ROOTS``, whose unended last
    line is the fault there.
    """
    names = {"__name__": unique_model_name("malformed"), "_NS": ("urn:fix",),
             "_ROWS": "0 v|v|?|simple|string\n", "_CLASSES": "R||0\n", "_ROOTS": "0 r|R\n"}
    names[table] = line if table == "_ROOTS" else f"{line}\n"
    before = dict(names)
    with pytest.raises(ImportError, match=re.escape(
            f"this parser package has a {refusal.format(line)}; "
            "regenerate it with 'slimbind generate'")):
        runtime.bind_parsers(names, runtime.PACKAGE_FORMAT)
    assert names == before


def _mutated(items, at, how):
    """``items`` with the one at ``at`` mutated ``how``: made empty, made ``x``,
    its numbers (or, holding none, itself) set to an index past every table,
    dropped, or followed by an added ``x``."""
    item = items[at]
    return items[:at] + {
        "empty": [""], "x": ["x"], "drop": [], "add": [item, "x"],
        "index": [re.sub(r"[0-9]+", "1000000", item) if re.search(r"[0-9]", item)
                  else "1000000"],
    }[how] + items[at + 1:]


@settings(max_examples=200, deadline=None)
@given(synth_model(), st.data())
def test_a_mutated_line_binds_or_is_refused(model, data):
    """A package with one item of one line mutated binds, or asks to be regenerated.

    Whatever the mutation, importing it raises no other exception.
    """
    (package,) = emit_parser_backend(model)
    source = package.content
    names = {"__name__": unique_model_name("mutated")}
    exec(compile(source[:source.index("parse_document = ")], "<tables>", "exec"), names)
    tables = [name for name in names
              if re.fullmatch(r"_ROWS|_CLASSES|_D\d+|_ROOTS", name) and names[name]]
    table = data.draw(st.sampled_from(sorted(tables)))
    lines = packed_lines(names[table])
    at = data.draw(st.integers(0, len(lines) - 1))
    item = data.draw(st.integers(0, lines[at].count("|")))
    how = data.draw(st.sampled_from(["empty", "x", "index", "drop", "add"]))
    lines[at] = "|".join(_mutated(lines[at].split("|"), item, how))
    names[table] = "".join(line + "\n" for line in lines)
    try:
        runtime.bind_parsers(names, runtime.PACKAGE_FORMAT)
    except ImportError as refused:
        assert str(refused).endswith("; regenerate it with 'slimbind generate'"), refused


def _package_tables(source):
    """``(_NS, _ROWS lines, {class name: _rows})`` of a generated package's source.

    The classes come in ``_CLASSES`` order, each ``_rows`` a tuple of ints,
    as ``runtime.bind_parsers`` reads it.
    """
    body = ast.parse(source).body
    return assigned(body, "_NS"), tuple(packed_lines(assigned(body, "_ROWS"))), {
        name: tuple(map(int, rows.split()))
        for name, _base, rows in (line.split("|")
                                  for line in packed_lines(assigned(body, "_CLASSES")))}


@settings(max_examples=30, deadline=None)
@given(synth_model())
def test_each_distinct_row_is_written_once_in_order_of_first_use(model):
    """A class's rows, resolved through ``_ROWS``, are its fields' rows in field order.

    ``_NS`` holds the namespaces the rows and tables name, in order of
    first use too.
    """
    (package,) = emit_parser_backend(model)
    namespaces, table, classes = _package_tables(package.content)
    spelling = emitter._Rows()
    tables = emitter._Tables(emitter._module_names(model), spelling.name)
    used = []
    for cls in emitter._base_first(model.classes):
        rows = [emitter._row(cls, f, tables, spelling.name)
                for f in effective_fields(model, cls)]
        assert [table[index] for index in classes[cls.name]] == rows, cls.name
        used += rows
    assert list(dict.fromkeys(used)) == list(table)
    emitter._root_contexts(model, tables)
    assert list(spelling.namespaces) == list(namespaces)
    assert package.rows == {"referenced": sum(map(len, classes.values())),
                            "distinct": len(table)}
    assert package.namespaces == len(namespaces)


def _renumbered(names):
    """A package's tables with ``_NS`` reversed and every row's slot written.

    ``names`` is the package's namespace.  Only a namespaced expat name
    holds a space.  Returns ``{name: table}`` for ``_NS``, ``_ROWS``, the
    dispatch tables and ``_ROOTS``.
    """
    old = names["_NS"]
    new = old[::-1]

    def spell(item):
        namespace, space, local = item.rpartition(" ")
        return f"{new.index(namespace)} {local}" if space else item

    def expand(key):
        index, space, local = key.partition(" ")
        return runtime.expat_name(old[int(index)], local) if space else key

    rows = [full_row(runtime._split_row(row, old)) for row in packed_lines(names["_ROWS"])]
    tables = {"_NS": new, "_ROWS": "".join(
        "|".join(map(spell, row.split("|"))) + "\n" for row in rows)}
    for name in names:
        if re.fullmatch(r"_D\d+|_ROOTS", name):
            tables[name] = "".join("|".join((spell(expand(key)), *rest)) + "\n" for key, *rest in
                                   (line.split("|") for line in packed_lines(names[name])))
    return tables


@settings(max_examples=30, deadline=None)
@given(synth_model())
@example(COLLAPSE_CHAIN_MODEL)
def test_rows_expand_to_their_full_form_and_bind_alike(model):
    """Naming namespaces by index and leaving slots empty changes no binding.

    Each row, expanded by the runtime, is the row with every name and slot
    written out; and tables that write every slot and number the namespaces
    in another order bind every class to the same ``_binding`` and
    ``_fields``.
    """
    (package,) = emit_parser_backend(model)
    namespaces, table, classes = _package_tables(package.content)
    tables = emitter._Tables(emitter._module_names(model), _expat_key)
    for cls in emitter._base_first(model.classes):
        full = ["|".join(item or "" for item in emitter._row_items(cls, f, tables, _expat_key))
                for f in effective_fields(model, cls)]
        assert [full_row(runtime._split_row(table[index], namespaces))
                for index in classes[cls.name]] == full, cls.name
    names = {"__name__": unique_model_name("rows")}
    exec(compile(package.content, "<package>", "exec"), names)

    def bound():
        return _by_name({c.name: (names[c.name]._binding, names[c.name]._fields)
                         for c in model.classes})

    emitted, roots = bound(), _by_name(root_table(names["parse_document"]))
    names.update(_renumbered(names))
    assert _by_name(root_table(runtime.bind_parsers(names, runtime.PACKAGE_FORMAT))) == roots
    assert bound() == emitted


def _expat_key(qname):
    return runtime.expat_name(qname.namespace, qname.local)


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
    model = wide_model(200)
    (package,) = emit_parser_backend(model)
    namespaces, table, _classes = _package_tables(package.content)
    # Each class writes its own rows as tuples, as earlier versions did.
    as_tuples = re.sub(r"^    _rows = (.*)$", lambda m: "    _rows = (\n" + "".join(
        f"        {read_row(table[index], namespaces)!r},\n"
        for index in ast.literal_eval(m[1])) + "    )",
        re.sub(r"^_(?:NS|ROWS) = \((?:\n(?:    .*\n)*\)|.*\))\n", "",
               class_statements(tuple_tables(package.content, model)), flags=re.M),
        flags=re.M)
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
    """Slot names are interned, and a class built from its entry is the one a statement gave.

    ``setattr`` compares a slot name that is not interned by its text: the
    ``wide-schema`` parse set took about 5% longer with slot names as
    ``str.split`` gives them.
    """
    model = wide_model(3)
    model.classes[0].fields[0].ignored = True
    package, (artifact,) = compile_model(model, tmp_path / "wide")
    for c in model.classes:
        presets, lists, attributes, elements, required, text = getattr(package, c.name)._binding
        slots = [slot for slot, _value in presets] + list(lists)
        slots += [slot for slot, _conv, _what in attributes.values()]
        slots += [action[4] for action in elements.values() if action]
        slots += [slot for slot, _message in required]
        slots += [text[0]] if text else []
        assert len(slots) >= 7 and all(sys.intern(s) is s for s in slots), c.name
    body, doc, options = RECURSIVE_CASES["base holding its derived type"]
    docs = [doc.replace(">", f' xmlns="{TNS}">', 1)]
    derived, derived_package, _, (derived_artifact,) = build_and_import(
        schema_of(body), docs, tmp_path / "derived", options)

    def shape(cls):
        return (cls.__name__, cls.__qualname__, cls.__module__, cls.__slots__, cls._rows,
                [(base.__module__, base.__qualname__) for base in cls.__bases__])

    for model, package, artifact, docs in ((model, package, artifact, []),
                                           (derived, derived_package, derived_artifact, docs)):
        # The same classes as class statements, in a module of the package's name.
        tuples = tuple_tables(artifact.content, model)
        twin = {"__name__": package.__name__,
                "_CLASSES": assigned(ast.parse(tuples).body, "_CLASSES")}
        with tuple_table_runtime():
            exec(compile(class_statements(tuples), "<statements>", "exec"), twin)
        for c in model.classes:
            built = getattr(package, c.name)
            assert built is not twin[c.name] and shape(built) == shape(twin[c.name]), c.name
            assert built.__slots__ and all(sys.intern(s) is s for s in built.__slots__), c.name
        for doc in docs:
            obj, twin_obj = package.parse_document(doc)[0], twin["parse_document"](doc)[0]
            assert repr(obj) == repr(twin_obj) and obj.to_dict() == twin_obj.to_dict()
            assert obj == package.parse_document(doc)[0] and obj != twin_obj
            assert twin_obj == twin["parse_document"](doc)[0]
    assert derived_package.D.__bases__ == (derived_package.B,)


def test_a_namespace_holding_a_tab_round_trips(tmp_path):
    """Rows name a namespace by its index into ``_NS``, so no row holds its text.

    A namespace may hold a tab through ``&#9;``; only ``_NS``, a tuple of
    string literals, spells it.
    """
    ns = "urn:a&#9;b"
    schema = load_schema_set([SchemaSource("mem://ns.xsd", raw_text=(
        f'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" xmlns:t="{ns}" '
        f'targetNamespace="{ns}" elementFormDefault="qualified">'
        '<xs:element name="r"><xs:complexType><xs:sequence>'
        '<xs:element name="v" type="xs:string"/>'
        '<xs:element name="w" minOccurs="0"><xs:complexType><xs:sequence>'
        '<xs:element name="i" type="xs:int"/></xs:sequence></xs:complexType></xs:element>'
        '</xs:sequence><xs:attribute ref="t:a"/></xs:complexType></xs:element>'
        '<xs:attribute name="a" type="xs:int"/></xs:schema>'))])
    head = f'<t:r xmlns:t="{ns}"'
    good = f'{head} t:a="1"><t:v>x</t:v><t:w><t:i>2</t:i></t:w></t:r>'
    model, module, _, artifacts = build_and_import(schema, [good], tmp_path)
    namespace = ns.replace("&#9;", "\t")
    source = artifacts[0].content
    assert assigned(ast.parse(source).body, "_NS") == (namespace,)
    assert field_rows(source, "RType") == (
        (f"{namespace} v", "v", "1", "simple", "string"),
        (f"{namespace} w", "w", "?", "collapse", ((f"{namespace} i",), "simple", "integer")),
        (f"{namespace} a", "a", "?", "attribute", "integer"))
    obj, warnings = module.parse_document(good)
    assert (obj.v, obj.w, obj.a, warnings) == ("x", 2, 1, [])
    _assert_oracle_outcomes(model, module, [
        good,
        f'{head} t:a="x"><t:w><t:i>y</t:i></t:w><t:u/></t:r>',
        f'{head} a="1"><t:v>x</t:v><v>y</v><t:w><t:i>2</t:i><t:i>3</t:i></t:w></t:r>',
    ])


def test_a_namespace_holding_a_space_expands_from_its_index():
    """A space ends a row's namespace index, and an expat name's namespace.

    Expat refuses a namespace that holds its separator, so no document
    reaches such a row; the row format still keeps the namespace whole.
    """
    rows = emitter._Rows()
    key = rows.name(QName("urn:a b", "v"))
    assert (key, list(rows.namespaces)) == ("0 v", ["urn:a b"])
    split = runtime._split_row(f"{key}||1|simple|string", tuple(rows.namespaces))
    assert split[:2] == ("urn:a b v", "v")
    assert runtime._split(split[0]) == ("urn:a b", "v")


# ---------------------------------------------------------------- packed tables

def _by_name(value):
    """``value`` with each class written as its name and each dict as its items, in order.

    Two packages' bindings compare equal so when they bind alike.
    """
    if isinstance(value, type):
        return value.__name__
    if isinstance(value, dict):
        return [(key, _by_name(item)) for key, item in value.items()]
    if isinstance(value, tuple):
        return tuple(map(_by_name, value))
    return value


def assert_binds_as_twin(model, source):
    """The package ``source`` binds each class as its :func:`tuple_tables` twin does.

    Each class's ``__slots__`` are its own fields, as the twin names them.
    """
    names = {"__name__": unique_model_name("packed")}
    exec(compile(source, "<packed>", "exec"), names)
    twin = exec_twin(tuple_tables(source, model), names["__name__"])
    for c in model.classes:
        packed, tuples = names[c.name], twin[c.name]
        assert packed is not tuples
        assert packed.__slots__ == tuples.__slots__ == tuple(f.name for f in c.fields), c.name
        assert (packed._fields, packed._rows) == (tuples._fields, tuples._rows), c.name
        assert _by_name(packed._binding) == _by_name(tuples._binding), c.name
    assert _by_name(root_table(names["parse_document"])) == _by_name(twin["_ROOTS"])


@settings(max_examples=30, deadline=None)
@given(synth_model())
@example(COLLAPSE_CHAIN_MODEL)
def test_packed_tables_bind_as_their_tuple_twin(model):
    (package,) = emit_parser_backend(model)
    assert_binds_as_twin(model, package.content)


_WILDCARD_FIRST_BODY = """
  <xs:element name="r" type="tns:R"/>
  <xs:element name="x" type="xs:string"/>
  <xs:element name="b" type="xs:string"/>
  <xs:complexType name="R">
    <xs:sequence>
      <xs:any namespace="##targetNamespace"/>
      <xs:element name="b" type="xs:int"/>
    </xs:sequence>
  </xs:complexType>"""


@pytest.mark.parametrize("ignored", [False, True], ids=["plain", "ignored"])
def test_a_wildcard_before_an_element_binds_after_it(tmp_path, ignored):
    """Rows and slots come in field order; the wildcard's row binds after the element's.

    An ignored wildcard's row is keyed ``*``, so it binds last too.
    """
    corpus = [f'<r xmlns="{TNS}"><x>1</x><b>2</b></r>', f'<r xmlns="{TNS}"><b>s</b><b>2</b></r>']
    any_path = ((QName(TNS, "r"), QName("http://www.w3.org/2001/XMLSchema", "any")),)
    model, module, _, (artifact,) = build_and_import(
        schema_of(_WILDCARD_FIRST_BODY), corpus, tmp_path,
        BindingOptions(ignore_paths=any_path if ignored else ()))
    assert field_rows(artifact.content, "R") == (
        ("*", "any", "1", "ignore", "_D0") if ignored else ("_D0", "any", "1", "dispatch", None),
        (f"{TNS} b", "b", "1", "simple", "integer"))
    assert module.R.__slots__ == module.R._fields == ("any", "b")
    _presets, _lists, _attributes, elements, required, _text = module.R._binding
    assert list(elements) == [f"{TNS} b", f"{TNS} x"]
    assert required == (("b", "element b"),) + (
        () if ignored else (("any", "element matching xs:any"),))
    assert_binds_as_twin(model, artifact.content)
    _assert_oracle_outcomes(model, module, corpus + [
        f'<r xmlns="{TNS}"/>', f'<r xmlns="{TNS}"><b>3</b><x>y</x><b>4</b></r>'])


def test_a_base_and_derived_pair_binds_as_its_twin(tmp_path):
    """A derived class's rows begin with its base's; its slots are its own fields."""
    body, doc, options = RECURSIVE_CASES["base holding its derived type"]
    doc = doc.replace(">", f' xmlns="{TNS}">', 1)
    model, module, _, (artifact,) = build_and_import(schema_of(body), [doc], tmp_path, options)
    assert module.D.__bases__ == (module.B,)
    assert (module.B.__slots__, module.D.__slots__, module.D._fields) == \
        (("v", "d"), ("w",), ("v", "d", "w"))
    assert [row[1] for row in field_rows(artifact.content, "D")] == ["v", "d", "w"]
    assert module.D._rows[:2] == module.B._rows
    assert_binds_as_twin(model, artifact.content)
    assert_equivalent(model, module, [doc])


def test_xsi_type_root_and_field_tables_bind_as_their_twin(tmp_path):
    """Each ``xsi:type`` table is a table of its own, named by the line it serves."""
    text = f"{XS_HEAD}\n{_TYPED_BODY}\n<xs:element name=\"v\" type=\"tns:B\"/>\n</xs:schema>"
    schema = load_schema_set([SchemaSource("mem://typed.xsd", raw_text=text)])
    typed = '<n:{0} xsi:type="n:D"><n:bx>1</n:bx><n:dy>1</n:dy></n:{0}>'
    head = f'xmlns:n="{TNS}" {_XSI_DECL}'
    corpus = [f'<n:r {head}>{typed.format("v")}<n:g/><n:w/></n:r>',
              typed.format("v").replace("<n:v ", f"<n:v {head} ", 1)]
    model, module, _, (artifact,) = build_and_import(schema, corpus, tmp_path)
    tables = {name: packed_lines(value) for name, value in vars(module).items()
              if re.fullmatch(r"_D\d+|_ROOTS", name)}
    (by_type,) = {line.split("|")[3] for lines in tables.values() for line in lines
                  if line.count("|") == 3}
    assert tables[by_type] == ["0 D|D"]
    assert sorted(tables["_ROOTS"]) == ["0 r|R", f"0 v|B||{by_type}"]
    assert_binds_as_twin(model, artifact.content)
    docs = corpus + [
        f'<n:v {head} xsi:type="n:B"><n:bx>2</n:bx></n:v>',
        f'<n:v {head} xsi:type="n:Q"><n:bx>2</n:bx><n:dy>3</n:dy></n:v>',
        f'<n:r {head}><n:v xsi:type="n:D"><n:dy>x</n:dy></n:v>{typed.format("w")}</n:r>',
    ]
    _assert_oracle_outcomes(model, module, docs)
    assert type(module.parse_document(corpus[1])[0]).__name__ == "D"


def test_only_a_package_with_an_xsi_type_table_keeps_the_namespace_scope(
        po_schema, tmp_path, monkeypatch):
    """The scope is kept when some table has an ``xsi:type`` table, here ``_ROOTS`` alone."""
    text = f"{XS_HEAD}\n{_TYPED_BODY}\n<xs:element name=\"v\" type=\"tns:B\"/>\n</xs:schema>"
    schema = load_schema_set([SchemaSource("mem://typed.xsd", raw_text=text)])
    doc = (f'<n:v xmlns:n="{TNS}" {_XSI_DECL} xsi:type="n:D"><n:bx>1</n:bx><n:dy>1</n:dy>'
           '</n:v>')
    model, typed, _, (artifact,) = build_and_import(schema, [doc], tmp_path)
    lines = [line for name, value in vars(typed).items() if re.fullmatch(r"_D\d+|_ROOTS", name)
             for line in packed_lines(value) if line.count("|") == 3]
    assert [line.split("|")[0] for line in lines] == ["0 v"]  # the root's line alone
    _model, plain, _, _ = build_and_import(po_schema, [PO_DOC], tmp_path)
    kept = []

    class Recorded(runtime._ExpatSource):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self.scopes is not None)

    monkeypatch.setattr(runtime, "_ExpatSource", Recorded)
    assert type(typed.parse_document(doc)[0]).__name__ == "D"
    assert plain.parse_document(PO_DOC)[0].id == 7
    assert kept == [True, False]
    _assert_oracle_outcomes(model, typed, [doc, doc.replace('"n:D"', '"zz:D"')])


def test_packed_tables_ship_in_far_fewer_bytes():
    """Quotes, commas, tab escapes, slot names and namespaces each written once or not at all."""
    model = wide_model(200)
    (package,) = emit_parser_backend(model)
    twin = tuple_tables(package.content, model)
    assert "_ROWS = ('" in twin and "_CLASSES = (('" in twin and "_ROOTS = {'" in twin
    assert package.byte_size <= 0.6 * len(twin.encode()), (package.byte_size, len(twin))


def test_manifest_counts_the_bytes_of_each_table(tmp_path):
    """``tables`` holds the bytes of each table's statement in ``__init__.py``."""
    schema, docs = shared_head_model(2)
    model, _module, _, (artifact,) = build_and_import(schema, docs, tmp_path)
    manifest = json.loads((tmp_path / "gen" / model.name / "MANIFEST.json").read_text())
    source = (tmp_path / "gen" / model.name / "__init__.py").read_bytes()
    lines = source.splitlines(keepends=True)
    keys = {"_NS": "namespaces", "_ROWS": "rows", "_CLASSES": "classes", "_ROOTS": "roots"}
    sizes = Counter()
    for node in ast.parse(source).body:
        name = node.targets[0].id if isinstance(node, ast.Assign) else None
        if name in keys or re.fullmatch(r"_D\d+", name or ""):
            sizes[keys.get(name, "dispatchTables")] += len(
                b"".join(lines[node.lineno - 1:node.end_lineno]))
    assert manifest["tables"] == dict(sizes) == artifact.tables
    assert set(sizes) == {"namespaces", "rows", "classes", "dispatchTables", "roots"}
    assert sum(sizes.values()) < manifest["totalBytes"] == len(source)


@pytest.mark.parametrize("name", ["a|b", 'a"b', "a\\b"], ids=["bar", "quote", "backslash"])
def test_a_name_a_packed_line_cannot_hold_is_refused(name):
    """The emitter refuses a name that would break a line, in a model loaded from JSON.

    The loader refuses such a name in a schema (it is no NCName), but a
    model can be written by other means.
    """
    body = """
  <xs:element name="r"><xs:complexType><xs:sequence>
    <xs:element name="zq" type="xs:string"/>
  </xs:sequence></xs:complexType></xs:element>"""
    schema = schema_of(body)
    usage = analyze(schema, f'<r xmlns="{TNS}"/>')
    model = build_binding_model(schema, compute_retained_set(schema, usage), usage,
                                BindingOptions(prune_unused=False), model_name="bad")
    text = serialize_binding_model(model)
    assert "zq" in text
    model = deserialize_binding_model(text.replace("zq", json.dumps(name)[1:-1]))
    with pytest.raises(SlimbindError, match="holds one of .* which a packed table line "
                       "cannot hold"):
        emit_parser_backend(model)


def test_a_namespace_holding_what_a_line_cannot_round_trips(tmp_path):
    """Only ``_NS``, a tuple of string literals, spells a namespace, whatever it holds."""
    ns = 'urn:a|b&quot;&quot;&quot;c&#10;d\\'
    schema = load_schema_set([SchemaSource("mem://ns.xsd", raw_text=(
        f'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" xmlns:t="{ns}" '
        f'targetNamespace="{ns}" elementFormDefault="qualified">'
        '<xs:element name="r"><xs:complexType><xs:sequence>'
        '<xs:element ref="t:h" maxOccurs="unbounded"/></xs:sequence>'
        '</xs:complexType></xs:element><xs:element name="h" type="xs:int"/>'
        '<xs:element name="m" type="xs:string" substitutionGroup="t:h"/></xs:schema>'))])
    good = f'<t:r xmlns:t="{ns}"><t:h>1</t:h><t:m>x</t:m></t:r>'
    model, module, _, (artifact,) = build_and_import(schema, [good], tmp_path)
    namespace = 'urn:a|b"""c\nd\\'
    assert module._NS == (namespace,) and namespace not in artifact.content
    assert root_table(module.parse_document) == {f"{namespace} r": (module.RType, None, None)}
    assert module.parse_document(good)[0].h == [1, "x"]
    _assert_oracle_outcomes(model, module, [good, f'<t:r xmlns:t="{ns}"><t:m/><h/></t:r>'])
