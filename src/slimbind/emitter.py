"""Render parser source files from a binding model and a template set.

The built-in backend emits a table-driven Python parser package against
``slimbind.runtime``, which holds all its parsing code.  The package is one
module of data, each table one string with a line per entry: the field
rows, one ``_CLASSES`` line per class (its name, base and the indices of
the rows it parses by), each distinct dispatch table once, the root
table, and one ``slimbind.runtime.bind_parsers`` call, stamped with the
package format, which makes and binds each class's ``__slots__`` record
class and returns ``parse_document``.  It ships as source alone.
Rendering is deterministic: equal inputs give byte-identical artifacts.
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
from .runtime import PACKAGE_FORMAT
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
    # For the built-in package, {"referenced": rows the classes index,
    # "distinct": rows in ``_ROWS``}, the number of namespaces in ``_NS``, and
    # the source bytes of its tables (see :func:`_table_bytes`); else None.
    rows: Optional[dict] = None
    namespaces: Optional[int] = None
    tables: Optional[dict] = None

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


# A packed table is one string literal with a line per entry, the items of
# a line joined by _SEP.  No NCName, identifier, occurs mark or index holds
# _SEP, nor any character _UNWRITABLE matches, which would end the line or
# the literal, or escape the next character.
_SEP = "|"
_UNWRITABLE = re.compile(r'[|\\"\r\n]')


def _packed(items, what) -> str:
    """``items`` as one line of a packed table, None written as an empty item."""
    items = [item or "" for item in items]
    if _UNWRITABLE.search("".join(items)):
        raise SlimbindError(f'{what}: a name holds one of | \\ " or a line break, '
                            "which a packed table line cannot hold")
    return _SEP.join(items)


class _Tables:
    """Dispatch tables of one package, each distinct table named once.

    A line names its target class by name and its conversion by its key in
    ``slimbind.runtime.CONVERSIONS``; ``spell`` spells its key as a row
    does (:meth:`_Rows.name`).
    """

    def __init__(self, classes, spell):
        self.classes = classes
        self.spell = spell
        self.names = {}  # table lines -> table name

    def target(self, target_class, value, by_type=None) -> tuple:
        """``(class, conversion, by_type)``; a class not in the model reads as simple."""
        if target_class in self.classes:
            return target_class, None, by_type
        return None, _conv(value), by_type

    def by_type(self, entries):
        """The name of the ``xsi:type`` table of ``entries``, or None."""
        if not entries:
            return None
        return self.name_of((e.qname, self.target(e.target_class, e.value)) for e in entries)

    def line(self, qname, target) -> str:
        """The line mapping ``qname`` to ``target``, trailing empty items left out."""
        return _packed((self.spell(qname), *target), str(qname)).rstrip(_SEP)

    def name_of(self, pairs) -> str:
        """The name of the table holding ``(qname, target)`` pairs."""
        lines = tuple(self.line(qname, target) for qname, target in _first_per_key(pairs))
        return self.names.setdefault(lines, f"_D{len(self.names)}")

    def context(self) -> list:
        return [{"name": name, "lines": list(lines)} for lines, name in self.names.items()]


def _first_per_key(pairs):
    """One pair per key, the first: a later entry for a taken key is unreachable."""
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
        pairs = [(field.xml_name, (None, None, by_type))]
    return tables.name_of(pairs)


class _Rows:
    """Field rows of one package: each distinct row indexed once, in order of first use.

    So is each namespace the rows name, in ``_NS``.
    """

    def __init__(self):
        self.index = {}  # row -> its index in _ROWS
        self.namespaces = {}  # namespace -> its index in _NS
        self.referenced = 0

    def name(self, qname) -> str:
        """``qname`` as a row writes it: ``"<index into _NS> <local>"``, or ``"local"``."""
        if not qname.namespace:
            return qname.local
        return f"{self.namespaces.setdefault(qname.namespace, len(self.namespaces))} {qname.local}"

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
    rows = _Rows()
    tables = _Tables(modules, rows.name)
    classes_ctx = [_class_context(model, cls, modules, tables, rows)
                   for cls in _base_first(model.classes)]
    roots_ctx = _root_contexts(model, tables)
    return {
        "model_name": model.name,
        "classes": classes_ctx,
        "namespaces": [repr(namespace) for namespace in rows.namespaces],
        "row_table": list(rows.index),
        "document_roots": roots_ctx,
        "dispatch_tables": tables.context(),
        "package_format": PACKAGE_FORMAT,
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


def _class_context(model, cls, modules, tables, rows) -> dict:
    """The context of ``cls``, its rows one per field it parses, in field order.

    Inherited fields come first when flattening is off, so the rows of a
    class begin with its base's.
    """
    indices = rows.indices([_row(cls, f, tables, rows.name)
                            for f in effective_fields(model, cls)])
    return {
        "name": cls.name,
        "module": modules[cls.name],
        "xml_type": cls.source_type,
        "fields": [{"py_name": f.name} for f in cls.fields],
        # The class's _CLASSES line; the runtime reads its slots from its rows.
        "entry": _packed((cls.name, cls.base, " ".join(map(str, indices))), cls.name),
        "has_base": cls.base is not None,
        "base": cls.base or "",
    }


def _row(cls, f, tables, name) -> str:
    """The field row of ``f``: ``key, slot, occurs, read, target``, one packed line.

    ``name`` spells the names the row matches (:meth:`_Rows.name` in a
    package).  None is written as an empty item, and so is a slot that is
    the local name of its key; a collapse row's target is its inner read,
    its target and its chain.  ``slimbind.runtime`` documents the format.
    """
    key, slot, *rest = _row_items(cls, f, tables, name)
    if key is not None and slot == key.rpartition(" ")[2]:
        slot = None
    return _packed((key, slot, *rest), f"{cls.name}.{f.name}")


def _row_items(cls, f, tables, name) -> tuple:
    """The items of ``f``'s row, each name spelt by ``name``, slot included."""
    occurs = _OCCURS[f.cardinality]
    if f.kind is FieldKind.TEXT_CONTENT:
        if cls.mixed:
            return None, f.name, occurs, "mixed", None
        return None, f.name, occurs, "text", _conv(f.value)
    if f.kind is FieldKind.ATTRIBUTE:
        return name(f.xml_name), f.name, occurs, "attribute", _conv(f.value)
    if f.dispatch:
        # A dispatch field matches its table's keys, even when ignored.
        table = _field_table(tables, f)
        if f.ignored:  # "*" marks a wildcard's row, which binds after the others
            return "*" if f.is_wildcard else None, f.name, occurs, "ignore", table
        return table, f.name, occurs, "dispatch", None if f.is_wildcard else f.xml_name.local
    key = name(f.xml_name)
    if f.ignored:
        return key, f.name, occurs, "ignore", None
    if f.collapse_chain:
        return (key, f.name, occurs, "collapse", *_element_read(f, tables.classes),
                *map(name, f.collapse_chain))
    return (key, f.name, occurs, *_element_read(f, tables.classes))


def _element_read(f, classes) -> tuple:
    """``("class", name)`` or ``("simple", conversion)`` for an element's value."""
    if f.target_class in classes:
        return "class", f.target_class
    return "simple", _conv(f.value)


def _root_contexts(model, tables) -> list:
    """One root-table line per root; ``xsi:type`` may pick another class."""
    pairs = []
    for root in model.roots:
        by_type = tables.by_type([e for e in root.dispatch
                                  if e.target_class in tables.classes])
        pairs.append((root.qname, tables.target(root.target_class, root.value, by_type)))
    return [{"qname": str(qname), "line": tables.line(qname, target)}
            for qname, target in _first_per_key(pairs)]


# ---------------------------------------------------------------- built-in backend

_PACKAGE_TEMPLATE = '''\
"""Parser package for model '{{model_name}}'. Generated code; do not edit."""
from slimbind.runtime import bind_parsers

_NS = (
{{#namespaces}}
    {{.}},
{{/namespaces}}
)
_ROWS = """\\
{{#row_table}}
{{.}}
{{/row_table}}
"""
_CLASSES = """\\
{{#classes}}
{{entry}}
{{/classes}}
"""
{{#dispatch_tables}}
{{name}} = """\\
{{#lines}}
{{.}}
{{/lines}}
"""
{{/dispatch_tables}}
_ROOTS = """\\
{{#document_roots}}
{{line}}
{{/document_roots}}
"""
parse_document = bind_parsers(globals(), {{package_format}})
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
    package.namespaces = len(rows.namespaces)
    package.tables = _table_bytes(package.content)
    return [package]


# A table statement of the built-in package, from its name to its last line.
_TABLE_STATEMENT = re.compile(r'^(_NS|_ROWS|_CLASSES|_D\d+|_ROOTS) = (?:\(\n.*?^\)|""".*?""")\n',
                              re.M | re.S)
_TABLE_KEYS = {"_NS": "namespaces", "_ROWS": "rows", "_CLASSES": "classes",
               "_ROOTS": "roots"}


def _table_bytes(content) -> dict:
    """The UTF-8 bytes of each table statement of a built-in package's source.

    The dispatch tables ``_D0``, ``_D1``, ... count together.
    """
    sizes = dict.fromkeys(("namespaces", "rows", "classes", "dispatchTables", "roots"), 0)
    for match in _TABLE_STATEMENT.finditer(content):
        sizes[_TABLE_KEYS.get(match[1], "dispatchTables")] += len(match[0].encode("utf-8"))
    return sizes


# ---------------------------------------------------------------- output writing

def write_artifacts(model: BindingModel, artifacts, out_root) -> dict:
    """Write artifacts under ``out_root/gen/<model-name>/`` plus MANIFEST.json.

    Returns the manifest dictionary.
    """
    gen_dir = os.path.join(out_root, "gen", model.name)
    os.makedirs(gen_dir, exist_ok=True)
    package = next((a for a in artifacts if a.rows is not None), None)
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
    if package is not None:
        manifest["rows"] = package.rows
        manifest["namespaces"] = package.namespaces
        manifest["tables"] = package.tables
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
