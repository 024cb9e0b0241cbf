"""Render parser source files from a binding model and a template set.

The built-in backend emits a table-driven Python parser package against
``slimbind.runtime``, which holds all its parsing code.  The package is one
module: each class's ``__slots__`` record class with the field rows it
parses by, each distinct dispatch table once, the root table, and the
document entry point.  Rendering is deterministic: equal inputs
give byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .binding import (
    IR_VERSION,
    BindingModel,
    Cardinality,
    FieldKind,
    ValueCategory,
    effective_fields,
)
from .errors import EmptyModelError, SlimbindError
from .jsonio import dumps, encode
from .runtime import expat_name
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
    # {"referenced": rows the classes index, "distinct": rows in ``_ROWS``},
    # for the built-in package; None for other artifacts.
    rows: Optional[dict] = None

    @cached_property
    def data(self) -> bytes:
        """The content as written: UTF-8, line ends as they are."""
        return self.content.encode("utf-8")

    @property
    def byte_size(self) -> int:
        return len(self.data)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


# ---------------------------------------------------------------- generic render

def render(model: BindingModel, templates: TemplateSet) -> list:
    """One artifact per manifest entry (per class for per-class entries)."""
    return _render(_render_context(model)[0], templates)


def _render(context, templates) -> list:
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

def _key(qname) -> str:
    """The expat name of ``qname``: how a package spells each name it matches."""
    return expat_name(qname.namespace, qname.local)


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

    Entries render in the package module, which defines every class and
    imports the conversions named in ``convs``.
    """

    def __init__(self, classes):
        self.classes = classes
        self.names = {}  # entry lines -> table name
        self.convs = set()

    def target(self, target_class, value, by_type=None) -> str:
        """``(cls, conv, by_type)``; a class not in the model reads as simple."""
        if target_class in self.classes:
            return f"({target_class}, None, {by_type})"
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
    return [f"{_key(qname)!r}: {target}" for qname, target in _first_per_key(pairs)]


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
    elif field.target_class in tables.classes or field.value is not None:
        pairs = [(field.xml_name, tables.target(field.target_class, field.value, by_type))]
    else:
        pairs = [(field.xml_name, f"(None, None, {by_type})")]
    return tables.name_of(pairs)


class _Rows:
    """Field rows of one package: each distinct row indexed once, in order of first use."""

    def __init__(self):
        self.index = {}  # row -> its index in _ROWS
        self.referenced = 0

    def indices(self, rows) -> tuple:
        self.referenced += len(rows)
        return tuple(self.index.setdefault(row, len(self.index)) for row in rows)

    def counts(self) -> dict:
        return {"referenced": self.referenced, "distinct": len(self.index)}


def build_render_context(model: BindingModel) -> dict:
    """The documented context templates render against (see binding-ir.md)."""
    return _render_context(model)[0]


def _render_context(model):
    """The render context and the :class:`_Rows` its classes index."""
    modules = _module_names(model)
    tables = _Tables(modules)
    rows = _Rows()
    classes_ctx = [_class_context(model, cls, modules, tables, rows)
                   for cls in _base_first(model.classes)]
    roots_ctx = _root_contexts(model, tables)
    return {
        "model_name": model.name,
        "classes": classes_ctx,
        "row_table": [repr(row) for row in rows.index],
        "document_roots": roots_ctx,
        "dispatch_tables": tables.context(),
        "dispatch_imports": ", ".join(sorted(tables.convs | {"bind_parsers", "parse_root"})),
        "options": encode(model.options),
        "class_count": len(model.classes),
    }, rows


def _base_first(classes) -> list:
    """``classes`` in order, each base class moved before its first derived class."""
    by_name = {cls.name: cls for cls in classes}
    placed, out = set(), []
    for cls in classes:
        chain = []
        while cls is not None and cls.name not in placed:
            placed.add(cls.name)
            chain.append(cls)
            cls = by_name.get(cls.base)
        out.extend(reversed(chain))
    return out


def _matchable(model, cls) -> list:
    """The fields ``cls`` has a row for, in row order.

    Rows cover inherited fields too when flattening is off.  Element
    fields take precedence over wildcards for the same name, so wildcard
    rows come after every other row.
    """
    fields = effective_fields(model, cls)
    return [f for f in fields if not f.is_wildcard] + [f for f in fields if f.is_wildcard]


def _class_context(model, cls, modules, tables, rows) -> dict:
    lists = tuple(f.name for f in cls.fields if f.cardinality is Cardinality.LIST)
    return {
        "name": cls.name,
        "module": modules[cls.name],
        "xml_type": cls.source_type,
        "fields": [{"py_name": f.name} for f in cls.fields],
        "slots": repr(tuple(f.name for f in cls.fields)),
        "lists": repr(lists) if lists else "",
        "rows": repr(rows.indices([_row(cls, f, tables) for f in _matchable(model, cls)])),
        "has_base": cls.base is not None,
        "base": cls.base or "",
        "base_module": modules.get(cls.base, "") if cls.base else "",
    }


def _row(cls, f, tables) -> str:
    """The field row of ``f``: ``key, slot, occurs, read, target`` joined by tabs.

    None is written as an empty item; a collapse row's target is its inner
    read, its target and its chain.  ``slimbind.runtime`` documents the format.
    """
    items = _row_items(cls, f, tables)
    if any("\t" in item for item in items if item):
        raise SlimbindError(f"{cls.name}.{f.name}: a name holds a tab, which "
                            "separates the items of a field row")
    return "\t".join(item or "" for item in items)


def _row_items(cls, f, tables) -> tuple:
    key = _key(f.xml_name)
    occurs = _OCCURS[f.cardinality]
    if f.kind is FieldKind.TEXT_CONTENT:
        if cls.mixed:
            return None, f.name, occurs, "mixed", None
        return None, f.name, occurs, "text", _conv(f.value)
    if f.kind is FieldKind.ATTRIBUTE:
        return key, f.name, occurs, "attribute", _conv(f.value)
    if f.dispatch:
        # A dispatch field matches its table's keys, even when ignored.
        table = _field_table(tables, f)
        if f.ignored:
            return None, f.name, occurs, "ignore", table
        return table, f.name, occurs, "dispatch", None if f.is_wildcard else f.xml_name.local
    if f.ignored:
        return key, f.name, occurs, "ignore", None
    if f.collapse_chain:
        return (key, f.name, occurs, "collapse", *_element_read(f, tables.classes),
                *map(_key, f.collapse_chain))
    return (key, f.name, occurs, *_element_read(f, tables.classes))


def _element_read(f, classes) -> tuple:
    """``("class", name)`` or ``("simple", conversion)`` for an element's value."""
    if f.target_class in classes:
        return "class", f.target_class
    return "simple", _conv(f.value)


def _root_contexts(model, tables) -> list:
    """One root-table entry per root; ``xsi:type`` may pick another class."""
    pairs = []
    for root in model.roots:
        by_type = tables.by_type([e for e in root.dispatch
                                  if e.target_class in tables.classes])
        pairs.append((root.qname, tables.target(root.target_class, root.value, by_type)))
    return [{"qname": str(qname), "line": f"{_key(qname)!r}: {target}"}
            for qname, target in _first_per_key(pairs)]


# ---------------------------------------------------------------- built-in backend

_PACKAGE_TEMPLATE = '''\
"""Parser package for model '{{model_name}}'. Generated code; do not edit."""
from slimbind.runtime import Record, {{dispatch_imports}}

_ROWS = (
{{#row_table}}
    {{.}},
{{/row_table}}
)
{{#classes}}


class {{name}}({{#has_base}}{{base}}{{/has_base}}{{^has_base}}Record{{/has_base}}):  # {{xml_type}}
    __slots__ = {{slots}}
    _rows = {{rows}}
{{/classes}}


# Dispatch tables: "namespace local" -> (class, conversion, xsi:type table).
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
bind_parsers(globals())


def parse_document(source, mode="strict", source_name="<input>"):
    """Parse one document; returns (typed object, warnings)."""
    return parse_root(_ROOTS, source, mode, source_name)
'''


def builtin_template_set() -> TemplateSet:
    return TemplateSet({"package.py": _PACKAGE_TEMPLATE},
                       [ManifestEntry("package.py", "__init__.py")])


def emit_parser_backend(model: BindingModel) -> list:
    """Parser package sources for the built-in Python backend."""
    if not model.roots:
        raise EmptyModelError("binding model has no roots")
    context, rows = _render_context(model)
    (package,) = _render(context, builtin_template_set())
    package.rows = rows.counts()
    return [package]


# ---------------------------------------------------------------- output writing

def write_artifacts(model: BindingModel, artifacts, out_root) -> dict:
    """Write artifacts under ``out_root/gen/<model-name>/`` plus MANIFEST.json.

    Returns the manifest dictionary.
    """
    gen_dir = os.path.join(out_root, "gen", model.name)
    os.makedirs(gen_dir, exist_ok=True)
    _remove_stale(gen_dir, {a.path for a in artifacts})
    entries = []
    for artifact in sorted(artifacts, key=lambda a: a.path):
        path = os.path.join(gen_dir, artifact.path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(artifact.data)
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
    for artifact in artifacts:
        if artifact.rows is not None:
            manifest["rows"] = artifact.rows
    with open(os.path.join(gen_dir, "MANIFEST.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps(manifest))
    return manifest


def _remove_stale(gen_dir, keep):
    """Delete the regular files inside ``gen_dir`` its MANIFEST.json lists, but ``keep``."""
    try:
        with open(os.path.join(gen_dir, "MANIFEST.json"), encoding="utf-8") as fh:
            listed = {entry["path"] for entry in json.load(fh)["artifacts"]}
    except (OSError, ValueError, KeyError, TypeError):
        return
    root = os.path.realpath(gen_dir)
    for path in (os.path.join(root, rel) for rel in listed - keep):
        if os.path.isfile(path) and not os.path.islink(path) and \
                os.path.commonpath([root, os.path.realpath(path)]) == root:
            os.remove(path)
