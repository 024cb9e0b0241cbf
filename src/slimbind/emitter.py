"""Render parser source files from a binding model and a template set.

The built-in backend emits table-driven Python parsers against
``slimbind.runtime``, which holds all their parsing code: one module per
class (its ``__slots__`` record class plus the field rows its record
parser reads), and one dispatch/entry module with each distinct dispatch
table once, the root table, and the document entry point.  Rendering is deterministic: equal
inputs give byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass

from .binding import (
    IR_VERSION,
    BindingModel,
    Cardinality,
    FieldKind,
    ValueCategory,
    effective_fields,
)
from .errors import EmptyModelError
from .jsonio import dumps, encode
from .templates import ManifestEntry, TemplateSet, compile_template, render_template

# Value category -> name of its conversion in ``slimbind.runtime.CONVERSIONS``.
_CONV = {
    ValueCategory.STRING: "string",
    ValueCategory.INTEGER: "integer",
    ValueCategory.DECIMAL: "decimal",
    ValueCategory.BOOLEAN: "boolean",
    ValueCategory.DOUBLE: "double",
    ValueCategory.RAW: "string",
}
_OCCURS = {
    Cardinality.SCALAR_REQUIRED: "1",
    Cardinality.SCALAR_OPTIONAL: "?",
    Cardinality.LIST: "*",
}


@dataclass
class GeneratedArtifact:
    path: str
    content: str

    @property
    def byte_size(self) -> int:
        return len(self.content.encode("utf-8"))

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.content.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- generic render

def render(model: BindingModel, templates: TemplateSet) -> list:
    """One artifact per manifest entry (per class for per-class entries)."""
    context = build_render_context(model)
    artifacts = []
    seen_paths = set()
    trees = {}  # template text -> compiled tree: each distinct text compiles once

    def tree(name, text):
        if text not in trees:
            trees[text] = compile_template(name, text)
        return trees[text]

    for entry in templates.manifest:
        path_tree = tree(entry.template + ":path", entry.path_pattern)
        body_tree = tree(entry.template, templates.templates[entry.template])
        if entry.per == "class":
            scopes = context["classes"]
        else:
            scopes = [None]
        for scope in scopes:
            ctx = dict(context)
            if scope is not None:
                ctx.update(scope)
            path = render_template(entry.template + ":path", path_tree, ctx)
            content = render_template(entry.template, body_tree, ctx)
            if path in seen_paths:
                raise ValueError(f"duplicate generated path {path}")
            seen_paths.add(path)
            artifacts.append(GeneratedArtifact(path, content))
    return artifacts


def size_report(artifacts) -> tuple:
    """(total bytes, rows sorted by descending size)."""
    rows = sorted(((a.byte_size, a.path) for a in artifacts),
                  key=lambda r: (-r[0], r[1]))
    total = sum(r[0] for r in rows)
    return total, rows


def format_size_report(artifacts) -> str:
    total, rows = size_report(artifacts)
    lines = [f"{size:>10}  {path}" for size, path in rows]
    lines.append(f"{total:>10}  TOTAL")
    return "\n".join(lines)


# ---------------------------------------------------------------- render context

def _py_tuple(qname) -> str:
    return f"({qname.namespace!r}, {qname.local!r})"


def _conv(value) -> str:
    return _CONV[value] if value is not None else "string"


def _module_names(model: BindingModel) -> dict:
    used = {}
    out = {}
    for cls in model.classes:
        base = "c_" + re.sub(r"[^0-9a-z]", "", cls.name.lower())
        n = used.get(base, 0)
        used[base] = n + 1
        out[cls.name] = base if n == 0 else f"{base}_{n + 1}"
    return out


class _Tables:
    """Dispatch tables of one package, each distinct table named once.

    Entries render against the dispatch module, which imports every class
    module and the conversions named in ``convs``.
    """

    def __init__(self, modules):
        self.modules = modules
        self.names = {}  # entry lines -> table name
        self.convs = set()

    def target(self, target_class, value, by_type=None) -> str:
        """``(parse, conv, by_type)``; a class without a module reads as simple."""
        if target_class in self.modules:
            return f"({self.modules[target_class]}.parse_{target_class}, None, {by_type})"
        conv = "conv_" + _conv(value)
        self.convs.add(conv)
        return f"(None, {conv}, {by_type})"

    def by_type(self, entries):
        """The ``xsi:type`` table of ``entries`` as a dict display, or None."""
        if not entries:
            return None
        return "{" + ", ".join(_entry_lines(
            (e.qname, self.target(e.target_class, e.value)) for e in entries)) + "}"

    def name_of(self, pairs) -> str:
        """The name of the table holding ``(qname, target)`` pairs."""
        lines = tuple(_entry_lines(pairs))
        return self.names.setdefault(lines, f"_D{len(self.names)}")

    def context(self) -> list:
        return [{"name": name, "lines": list(lines)} for lines, name in self.names.items()]


def _entry_lines(pairs) -> list:
    """``key: target`` lines; a later entry for a taken key is unreachable."""
    return [f"{_py_tuple(qname)}: {target}" for qname, target in _first_per_key(pairs)]


def _first_per_key(pairs):
    first = {}
    for qname, target in pairs:
        first.setdefault(qname, target)
    return first.items()


def _field_table(tables, field) -> str:
    """Register a dispatch field's table; returns its name.

    Element entries switch on the child's name.  ``xsi:type`` entries apply
    to the field's own element, or, without element entries, to every child
    the field matches by its own name.
    """
    elem_entries = [e for e in field.dispatch if e.via == "element"]
    by_type = tables.by_type([e for e in field.dispatch if e.via == "xsi-type"])
    if elem_entries:
        pairs = [(e.qname, tables.target(
            e.target_class, e.value,
            by_type if e.component == field.source_element else None))
            for e in elem_entries]
    elif field.target_class in tables.modules or field.value is not None:
        pairs = [(field.xml_name, tables.target(field.target_class, field.value, by_type))]
    else:
        pairs = [(field.xml_name, f"(None, None, {by_type})")]
    return tables.name_of(pairs)


def build_render_context(model: BindingModel) -> dict:
    """The documented context templates render against (see binding-ir.md)."""
    modules = _module_names(model)
    tables = _Tables(modules)
    classes_ctx = [_class_context(model, cls, modules, tables) for cls in model.classes]
    roots_ctx = _root_contexts(model, tables)
    return {
        "model_name": model.name,
        "classes": classes_ctx,
        "document_roots": roots_ctx,
        "dispatch_tables": tables.context(),
        "dispatch_imports": ", ".join(sorted(tables.convs | {"bind_parsers", "parse_root"})),
        "options": encode(model.options),
        "class_count": len(model.classes),
    }


def _class_context(model, cls, modules, tables) -> dict:
    # Rows cover inherited fields too when flattening is off.  Element
    # fields take precedence over wildcards for the same name, so wildcard
    # rows come after every other row.
    matchable = effective_fields(model, cls)
    matchable = [f for f in matchable if not f.is_wildcard] + \
        [f for f in matchable if f.is_wildcard]
    lists = tuple(f.name for f in cls.fields if f.cardinality is Cardinality.LIST)
    return {
        "name": cls.name,
        "module": modules[cls.name],
        "xml_type": cls.source_type,
        "fields": [{"py_name": f.name} for f in cls.fields],
        "slots": repr(tuple(f.name for f in cls.fields)),
        "lists": repr(lists) if lists else "",
        "rows": [repr(_row(cls, f, modules, tables)) for f in matchable],
        "has_base": cls.base is not None,
        "base": cls.base or "",
        "base_module": modules.get(cls.base, "") if cls.base else "",
    }


def _row(cls, f, modules, tables) -> tuple:
    """The field row ``(key, slot, occurs, read, target)`` of ``f``.

    ``slimbind.runtime`` documents the format.
    """
    key = (f.xml_name.namespace, f.xml_name.local)
    occurs = _OCCURS[f.cardinality]
    if f.kind is FieldKind.TEXT_CONTENT:
        if cls.mixed:
            return None, f.name, occurs, "mixed", None
        return None, f.name, occurs, "text", _conv(f.value)
    if f.kind is FieldKind.ATTRIBUTE:
        return key, f.name, occurs, "attribute", _conv(f.value)
    # A dispatch field matches its table's keys, even when ignored.
    if f.dispatch:
        key = _field_table(tables, f)
    if f.ignored:
        read, target = "ignore", None
    elif f.dispatch:
        read, target = "dispatch", None if f.is_wildcard else f.xml_name.local
    elif f.collapse_chain:
        chain = tuple((q.namespace, q.local) for q in f.collapse_chain)
        read, target = "collapse", (chain, *_element_read(f, modules))
    else:
        read, target = _element_read(f, modules)
    return key, f.name, occurs, read, target


def _element_read(f, modules) -> tuple:
    """``("class", name)`` or ``("simple", conversion)`` for an element's value."""
    if f.target_class in modules:
        return "class", f.target_class
    return "simple", _conv(f.value)


def _root_contexts(model, tables) -> list:
    """One root-table entry per root; ``xsi:type`` may pick another class."""
    pairs = []
    for root in model.roots:
        by_type = tables.by_type([e for e in root.dispatch
                                  if e.target_class in tables.modules])
        pairs.append((root.qname, tables.target(root.target_class, root.value, by_type)))
    return [{"qname": str(qname), "line": f"{_py_tuple(qname)}: {target}"}
            for qname, target in _first_per_key(pairs)]


# ---------------------------------------------------------------- built-in backend

_CLASS_TEMPLATE = '''\
"""Parser for {{xml_type}}. Generated code; do not edit."""
from slimbind.runtime import {{^has_base}}Record, {{/has_base}}RecordParser
{{#has_base}}

from .{{base_module}} import {{base}}
{{/has_base}}


class {{name}}({{#has_base}}{{base}}{{/has_base}}{{^has_base}}Record{{/has_base}}):
    __slots__ = {{slots}}
{{#lists}}
    _lists = {{lists}}
{{/lists}}


# Field rows (key, slot, occurs, read, target); see slimbind.runtime.
parse_{{name}} = RecordParser({{name}}, (
{{#rows}}
    {{.}},
{{/rows}}
))
'''

_DISPATCH_TEMPLATE = '''\
"""Entry point and dispatch tables. Generated; do not edit."""
from slimbind.runtime import {{dispatch_imports}}

{{#classes}}
from . import {{module}}
{{/classes}}

# Dispatch tables: (namespace, local) -> (parser, conversion, xsi:type table).
{{#dispatch_tables}}
{{name}} = {
{{#lines}}
    {{.}},
{{/lines}}
}
{{/dispatch_tables}}
_ROOTS = {
{{#document_roots}}
    {{line}},
{{/document_roots}}
}

bind_parsers((
{{#classes}}
    {{module}},
{{/classes}}
), {
{{#dispatch_tables}}
    "{{name}}": {{name}},
{{/dispatch_tables}}
})


def parse_document(source, mode="strict", source_name="<input>"):
    """Parse one document; returns (typed object, warnings)."""
    return parse_root(_ROOTS, source, mode, source_name)
'''

_INIT_TEMPLATE = '''\
"""Generated parser package for model '{{model_name}}'; do not edit."""

from .dispatch import parse_document

__all__ = ["parse_document"]
'''


def builtin_template_set() -> TemplateSet:
    return TemplateSet(
        templates={
            "class.py": _CLASS_TEMPLATE,
            "dispatch.py": _DISPATCH_TEMPLATE,
            "init.py": _INIT_TEMPLATE,
        },
        manifest=[
            ManifestEntry("init.py", "__init__.py", per="model"),
            ManifestEntry("dispatch.py", "dispatch.py", per="model"),
            ManifestEntry("class.py", "{{module}}.py", per="class"),
        ],
    )


def emit_parser_backend(model: BindingModel) -> list:
    """Parser package sources for the built-in Python backend."""
    if not model.roots:
        raise EmptyModelError("binding model has no roots")
    return render(model, builtin_template_set())


# ---------------------------------------------------------------- output writing

def write_artifacts(model: BindingModel, artifacts, out_root) -> dict:
    """Write artifacts under ``out_root/gen/<model-name>/`` plus MANIFEST.json.

    Returns the manifest dictionary.
    """
    gen_dir = os.path.join(out_root, "gen", model.name)
    os.makedirs(gen_dir, exist_ok=True)
    entries = []
    for artifact in sorted(artifacts, key=lambda a: a.path):
        path = os.path.join(gen_dir, artifact.path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(artifact.content)
        entries.append({
            "path": artifact.path,
            "bytes": artifact.byte_size,
            "sha256": artifact.sha256,
        })
    total, _rows = size_report(artifacts)
    manifest = {
        "model": model.name,
        "irVersion": IR_VERSION,
        "options": encode(model.options),
        "classCount": len(model.classes),
        "collapsedClasses": [c.name for c in model.collapsed_classes],
        "artifacts": entries,
        "totalBytes": total,
    }
    with open(os.path.join(gen_dir, "MANIFEST.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps(manifest))
    return manifest
