"""Command-line pipeline: exit codes, outputs, idempotency, flag mapping."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TNS, XS_HEAD
from test_emitter import field_rows
from slimbind.cli import main

SCHEMA = f"""{XS_HEAD}
  <xs:element name="doc" type="tns:DocType"/>
  <xs:element name="spare" type="tns:SpareType"/>
  <xs:complexType name="DocType">
    <xs:sequence>
      <xs:element name="entry" type="tns:EntryType" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="EntryType">
    <xs:sequence>
      <xs:element name="label" type="xs:string"/>
      <xs:element name="count" type="xs:int" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="SpareType">
    <xs:sequence><xs:element name="junk" type="xs:string"/></xs:sequence>
  </xs:complexType>
</xs:schema>"""

GOOD_DOC = f"""<doc xmlns="{TNS}">
  <entry><label>a</label><count>1</count></entry>
  <entry><label>b</label></entry>
</doc>"""


@pytest.fixture
def workspace(tmp_path):
    schemas = tmp_path / "schemas"
    docs = tmp_path / "docs"
    out = tmp_path / "out"
    schemas.mkdir()
    docs.mkdir()
    (schemas / "main.xsd").write_text(SCHEMA)
    (docs / "a.xml").write_text(GOOD_DOC)
    return {"schemas": schemas, "docs": docs, "out": out}


def run(ws, command, *extra):
    return main([command,
                 "--schemas", str(ws["schemas"] / "main.xsd"),
                 "--docs", str(ws["docs"]),
                 "--out", str(ws["out"]), *extra])


def test_docs_accepts_file_list(workspace, capsys):
    (workspace["docs"] / "b.xml").write_text(
        f'<spare xmlns="{TNS}"><junk>j</junk></spare>')
    code = main(["analyze",
                 "--schemas", str(workspace["schemas"] / "main.xsd"),
                 "--docs", str(workspace["docs"] / "a.xml"),
                 str(workspace["docs"] / "b.xml"),
                 "--out", str(workspace["out"])])
    assert code == 0
    report = json.loads((workspace["out"] / "usage-report.json").read_text())
    assert report["documentCount"] == 2


def test_template_error_exit_3(workspace, tmp_path):
    tdir = tmp_path / "tpl"
    tdir.mkdir()
    (tdir / "templates.json").write_text(
        '{"manifest": [{"template": "bad.tpl", "path": "o.txt", "per": "model"}]}')
    (tdir / "bad.tpl").write_text("{{definitely_not_a_key}}")
    assert run(workspace, "generate", "--templates", str(tdir)) == 3


def test_custom_templates_render(workspace, tmp_path):
    tdir = tmp_path / "tpl"
    tdir.mkdir()
    (tdir / "templates.json").write_text(
        '{"manifest": [{"template": "c.tpl", "path": "{{module}}.txt", '
        '"per": "class"}]}')
    (tdir / "c.tpl").write_text("{{name}}\n")
    assert run(workspace, "generate", "--templates", str(tdir)) == 0
    gen = workspace["out"] / "gen" / "model"
    assert (gen / "c_doctype.txt").read_text() == "DocType\n"


def test_generate_removes_files_the_old_manifest_listed(workspace, tmp_path):
    tdir = tmp_path / "tpl"
    tdir.mkdir()
    (tdir / "templates.json").write_text(
        '{"manifest": [{"template": "c.tpl", "path": "{{module}}.py", "per": "class"}]}')
    (tdir / "c.tpl").write_text("{{name}}\n")
    assert run(workspace, "generate", "--no-collapse", "--templates", str(tdir)) == 0
    gen = workspace["out"] / "gen" / "model"
    assert sorted(p.name for p in gen.iterdir()) == \
        ["MANIFEST.json", "c_doctype.py", "c_entrytype.py"]
    (gen / "notes.txt").write_text("mine")
    outside = workspace["out"] / "outside.txt"
    outside.write_text("mine")
    manifest = json.loads((gen / "MANIFEST.json").read_text())
    manifest["artifacts"].append({"path": "../../outside.txt"})
    (gen / "MANIFEST.json").write_text(json.dumps(manifest))
    assert run(workspace, "generate") == 0
    assert sorted(p.name for p in gen.iterdir()) == \
        ["MANIFEST.json", "__init__.py", "notes.txt"]
    assert outside.read_text() == "mine"


def test_custom_templates_remove_the_builtin_package(workspace, tmp_path):
    assert run(workspace, "generate") == 0
    gen = workspace["out"] / "gen" / "model"
    tdir = tmp_path / "tpl"
    tdir.mkdir()
    (tdir / "templates.json").write_text(
        '{"manifest": [{"template": "c.tpl", "path": "{{module}}.py", "per": "class"}]}')
    (tdir / "c.tpl").write_text("{{name}}\n")
    assert run(workspace, "generate", "--templates", str(tdir)) == 0
    assert not (gen / "__init__.py").exists()
    assert sorted(p.name for p in gen.iterdir()) == \
        ["MANIFEST.json", "c_doctype.py", "c_entrytype.py"]


def test_missing_docs_path_is_an_io_error(workspace, capsys):
    missing = workspace["docs"] / "nope.xml"
    code = main(["analyze", "--schemas", str(workspace["schemas"] / "main.xsd"),
                 "--docs", str(workspace["docs"] / "a.xml"), str(missing),
                 "--out", str(workspace["out"])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("IO_ERROR:") and str(missing) in err
    assert not workspace["out"].exists()  # stopped before analysis


def test_analyze_success(workspace, capsys):
    assert run(workspace, "analyze") == 0
    report = json.loads((workspace["out"] / "usage-report.json").read_text())
    assert report["documentCount"] == 1
    assert "analyzed 1 documents" in capsys.readouterr().out


def test_analyze_invalid_doc_strict_exit_2(workspace, capsys):
    (workspace["docs"] / "bad.xml").write_text(
        f'<doc xmlns="{TNS}"><nope/></doc>')
    assert run(workspace, "analyze") == 2
    err = capsys.readouterr().err
    assert "bad.xml" in err
    # Report still written for the successful documents.
    report = json.loads((workspace["out"] / "usage-report.json").read_text())
    assert report["documentCount"] == 1


def test_analyze_lenient_tolerates(workspace):
    (workspace["docs"] / "bad.xml").write_text(
        f'<doc xmlns="{TNS}"><nope/><entry><label>z</label></entry></doc>')
    assert run(workspace, "analyze", "--lenient") == 0


@pytest.mark.parametrize("command", ["analyze", "simplify", "generate"])
def test_lenient_warning_is_printed(workspace, capsys, command):
    (workspace["docs"] / "foreign.xml").write_text(
        f'<doc xmlns="{TNS}"><x:alien xmlns:x="urn:other"/>'
        '<entry><label>z</label></entry></doc>')
    assert run(workspace, command, "--lenient") == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: ")]
    assert len(warnings) == 1
    assert "foreign.xml" in warnings[0] and "alien" in warnings[0]


def test_schema_error_exit_1(workspace, capsys):
    (workspace["schemas"] / "main.xsd").write_text(f"""{XS_HEAD}
  <xs:element name="doc" type="tns:Missing"/>
</xs:schema>""")
    assert run(workspace, "analyze") == 1
    assert "DANGLING_REFERENCE" in capsys.readouterr().err


def test_missing_import_exit_1(workspace, capsys):
    (workspace["schemas"] / "main.xsd").write_text(f"""{XS_HEAD}
  <xs:import namespace="urn:gone" schemaLocation="gone.xsd"/>
</xs:schema>""")
    assert run(workspace, "analyze") == 1
    assert "UNRESOLVED_IMPORT" in capsys.readouterr().err


def test_simplify_prints_ratio_and_reloads(workspace, capsys):
    assert run(workspace, "simplify") == 0
    out = capsys.readouterr().out
    # 3 of 5 globals: doc, DocType, EntryType used; spare + SpareType dropped.
    assert "(60.0%)" in out
    reduced = workspace["out"] / "reduced" / "urn-fix.xsd"
    assert reduced.exists()
    text = reduced.read_text()
    assert "SpareType" not in text
    report = json.loads((workspace["out"] / "reduction-report.json").read_text())
    assert report["retainedComponents"] == 3
    assert report["totalComponents"] == 5


def test_simplify_all_used_is_100_percent(workspace, capsys):
    (workspace["docs"] / "b.xml").write_text(
        f'<spare xmlns="{TNS}"><junk>j</junk></spare>')
    assert run(workspace, "simplify") == 0
    assert "(100.0%)" in capsys.readouterr().out


def test_simplify_empty_corpus_exit_2(workspace, capsys):
    for f in workspace["docs"].iterdir():
        f.unlink()
    assert run(workspace, "simplify") == 2
    assert "no usage recorded" in capsys.readouterr().err
    assert not (workspace["out"] / "reduced").exists()


def test_generate_default_flags(workspace, capsys):
    assert run(workspace, "generate") == 0
    gen = workspace["out"] / "gen" / "model"
    manifest = json.loads((gen / "MANIFEST.json").read_text())
    assert manifest["classCount"] == 2
    for entry in manifest["artifacts"]:
        assert (gen / entry["path"]).exists()
    assert (workspace["out"] / "binding-model.json").exists()
    assert (workspace["out"] / "usage-report.json").exists()
    assert (workspace["out"] / "reduction-report.json").exists()


def test_generate_synthetic_corpus_noted_in_manifest(workspace):
    assert run(workspace, "generate", "--synthetic-corpus") == 0
    manifest = json.loads(
        (workspace["out"] / "gen" / "model" / "MANIFEST.json").read_text())
    assert manifest["options"]["corpusIsSynthetic"] is True
    assert manifest["options"]["tightenOccurrences"] is False
    assert manifest["options"]["boundSubstitutions"] is False


def test_generate_flag_mapping(workspace):
    assert run(workspace, "generate", "--no-flatten", "--no-collapse",
               "--keep-occurrences", "--all-substitutions", "--no-prune") == 0
    manifest = json.loads(
        (workspace["out"] / "gen" / "model" / "MANIFEST.json").read_text())
    opts = manifest["options"]
    assert opts["flattenInheritance"] is False
    assert opts["collapseSingleChild"] is False
    assert opts["tightenOccurrences"] is False
    assert opts["boundSubstitutions"] is False
    assert opts["pruneUnused"] is False


@pytest.mark.parametrize("ns", [TNS, "http://example.com/ns"], ids=["urn", "slashes"])
def test_generate_ignore_path_emits_skip(workspace, ns, request):
    (workspace["schemas"] / "main.xsd").write_text(SCHEMA.replace(TNS, ns))
    (workspace["docs"] / "a.xml").write_text(GOOD_DOC.replace(TNS, ns))
    assert run(workspace, "generate",
               "--ignore", f"{{{ns}}}doc/entry") == 0
    package = _load_package(workspace["out"] / "gen" / "model",
                            f"cli_ignore_model_{request.node.callspec.id}")
    (row,) = field_rows((workspace["out"] / "gen" / "model" / "__init__.py").read_text(),
                        "DocType")
    assert row == (f"{ns} entry", "entry", "*", "ignore", None)
    obj, warnings = package.parse_document(GOOD_DOC.replace(TNS, ns))
    assert (obj.entry, warnings) == ([], [])
    model = json.loads((workspace["out"] / "binding-model.json").read_text())
    entry_fields = [f for c in model["classes"] for f in c["fields"]
                    if f["name"] == "entry"]
    assert entry_fields and entry_fields[0]["ignored"] is True


@pytest.mark.parametrize("path", ["{http://example.com/ns/doc/entry",
                                  "{http://example.com/ns}/entry",
                                  "{urn:t}r/a b", "{urn:t}r/a:b"])
def test_generate_malformed_ignore_path_exits_1(workspace, capsys, path):
    assert run(workspace, "generate", "--ignore", path) == 1
    err = capsys.readouterr().err
    assert f"--ignore {path}" in err and "Traceback" not in err
    assert not (workspace["out"] / "gen").exists()


def test_generate_warns_about_ignore_path_matching_no_field(workspace, capsys):
    # Without its namespace the path names no field; the matching one is quiet.
    assert run(workspace, "generate", "--ignore", "doc/entry",
               "--ignore", f"{{{TNS}}}doc/entry/count") == 0
    err = capsys.readouterr().err
    assert err.splitlines() == ["warning: --ignore doc/entry matched no field"]
    model = json.loads((workspace["out"] / "binding-model.json").read_text())
    ignored = [f["name"] for c in model["classes"] for f in c["fields"] if f["ignored"]]
    assert ignored == ["count"]


def _load_package(path, name):
    """Import the generated package at ``path`` under the name ``name``."""
    import importlib.util
    import sys
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def test_idempotent_outputs(workspace):
    assert run(workspace, "generate") == 0
    snapshot = {}
    for path in sorted((workspace["out"]).rglob("*")):
        if path.is_file():
            snapshot[str(path)] = path.read_bytes()
    assert run(workspace, "generate") == 0
    for path, blob in snapshot.items():
        assert Path(path).read_bytes() == blob


def test_pipeline_composition_matches_manual(workspace, tmp_path):
    """cmd_generate equals composing the module operations directly."""
    assert run(workspace, "generate") == 0
    from slimbind.analyzer import analyze_corpus
    from slimbind.binding import BindingOptions, build_binding_model
    from slimbind.emitter import emit_parser_backend
    from slimbind.loader import SchemaSource, load_schema_set
    from slimbind.simplify import compute_retained_set

    schema = load_schema_set(
        [SchemaSource.from_file(workspace["schemas"] / "main.xsd")])
    usage = analyze_corpus(schema, [workspace["docs"] / "a.xml"])
    retained = compute_retained_set(schema, usage)
    model = build_binding_model(schema, retained, usage,
                                BindingOptions(), "model")
    artifacts = {a.path: a.content for a in emit_parser_backend(model)}
    gen = workspace["out"] / "gen" / "model"
    for path, content in artifacts.items():
        assert (gen / path).read_text() == content


def test_out_dir_must_differ_from_inputs(workspace, capsys):
    code = main(["analyze",
                 "--schemas", str(workspace["schemas"] / "main.xsd"),
                 "--docs", str(workspace["docs"]),
                 "--out", str(workspace["docs"])])
    assert code == 1


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "3 template errors" in out


@pytest.mark.parametrize("encoding, declared", [
    ("iso-8859-1", "ISO-8859-1"),  # a non-ASCII byte that is not UTF-8
    ("utf-16-le", "UTF-16"),  # no byte order mark
])
def test_analyze_reads_schema_in_declared_encoding(workspace, capsys, encoding, declared):
    text = SCHEMA.replace("<xs:complexType name=\"SpareType\">",
                          "<!-- café -->\n  <xs:complexType name=\"SpareType\">")
    (workspace["schemas"] / "main.xsd").write_bytes(
        f'<?xml version="1.0" encoding="{declared}"?>\n{text}'.encode(encoding))
    assert run(workspace, "analyze") == 0
    assert "analyzed 1 documents" in capsys.readouterr().out


# ---------------------------------------------------------------- device import

SRC = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))


def _device_import(gen_dir, name="model", cache=False):
    """Import package ``name`` from ``gen_dir`` in a fresh interpreter, as a device would.

    The interpreter writes no bytecode unless ``cache``.  Returns what the
    import compiled from source (file names), the package's docstring, and
    the document parsed to plain values.
    """
    probe = (
        "import json, os, sys\n"
        f"sys.path[:0] = [{os.fspath(gen_dir)!r}, {SRC!r}]\n"
        "import slimbind.runtime\n"
        "import _frozen_importlib_external as external\n"
        "compiled, to_code = [], external.SourceLoader.source_to_code\n"
        "def source_to_code(self, data, path, *args, **kwargs):\n"
        "    compiled.append(os.path.basename(path))\n"
        "    return to_code(self, data, path, *args, **kwargs)\n"
        "external.SourceLoader.source_to_code = source_to_code\n"
        f"import {name} as package\n"
        f"obj, warnings = package.parse_document({GOOD_DOC!r})\n"
        "print(json.dumps([compiled, package.__doc__, obj.to_dict(), len(warnings)]))\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "" if cache else "1"}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env)
    return json.loads(done.stdout)


def test_an_edited_package_source_is_compiled_not_shadowed(workspace):
    """``generate`` ships the source alone, which a device compiles; an edit shows."""
    assert run(workspace, "generate") == 0
    gen = workspace["out"] / "gen" / "model"
    source = (gen / "__init__.py").read_bytes()
    manifest = json.loads((gen / "MANIFEST.json").read_text())
    assert sorted(p.name for p in gen.iterdir()) == ["MANIFEST.json", "__init__.py"]
    assert "bytecode" not in manifest and manifest["totalBytes"] == len(source)
    compiled, doc, obj, warnings = _device_import(gen.parent)
    assert (compiled, warnings) == (["__init__.py"], 0)
    assert obj == {"entry": [{"label": "a", "count": 1}, {"label": "b", "count": None}]}
    assert doc == "Parser package for model 'model'. Generated code; do not edit."
    edited = source.replace(b"Generated code; do not edit.", b"Generated code; DO NOT EDIT.")
    assert edited != source and len(edited) == len(source)
    (gen / "__init__.py").write_bytes(edited)
    compiled, doc, _obj, _warnings = _device_import(gen.parent)
    assert (compiled, doc) == (["__init__.py"],
                               "Parser package for model 'model'. Generated code; DO NOT EDIT.")


def test_a_package_regenerated_after_an_import_is_the_one_imported(workspace):
    """Even when the interpreter cached the bytecode of the package it replaces."""
    assert run(workspace, "generate") == 0
    gen = workspace["out"] / "gen"
    compiled, _doc, obj, _warnings = _device_import(gen, cache=True)
    assert (compiled, len(obj["entry"])) == (["__init__.py"], 2)
    assert list((gen / "model" / "__pycache__").iterdir())
    assert run(workspace, "generate", "--ignore", f"{{{TNS}}}doc/entry") == 0
    compiled, _doc, obj, _warnings = _device_import(gen, cache=True)
    assert (compiled, obj) == (["__init__.py"], {"entry": []})
