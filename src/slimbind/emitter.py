"""Render parser source files from a binding model and a template set.

The built-in backend emits plain recursive-descent Python parsers against
``slimbind.runtime``, which holds the helpers they share: one module per
class (dataclass plus its parse function), and one dispatch/entry module
with each distinct dispatch table once, the root table, and the document
entry point.  Rendering is deterministic: equal inputs give byte-identical
artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass

from .binding import (
    BindingModel,
    Cardinality,
    FieldKind,
    ValueCategory,
    effective_fields,
)
from .errors import EmptyModelError
from .templates import ManifestEntry, TemplateSet, compile_template, render_template

_CONV_FN = {
    ValueCategory.STRING: "conv_string",
    ValueCategory.INTEGER: "conv_integer",
    ValueCategory.DECIMAL: "conv_decimal",
    ValueCategory.BOOLEAN: "conv_boolean",
    ValueCategory.DOUBLE: "conv_double",
    ValueCategory.RAW: "conv_raw",
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


def _conv_fn(value) -> str:
    return _CONV_FN[value] if value is not None else "conv_raw"


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
        conv = _conv_fn(value)
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
        "options": model.options.to_json_dict(),
        "class_count": len(model.classes),
    }


def _class_context(model, cls, modules, tables) -> dict:
    fields_ctx = []
    element_cases = []
    attr_cases = []
    required_checks = []
    text_field = None
    imports = {"EventKind", "Violation", "consume_nil", "is_nil"}
    late = {}  # late-bound name -> None, in first-use order

    def parser(target_class):
        name = f"parse_{target_class}"
        if target_class != cls.name:
            late[name] = None
        return name

    for f in cls.fields:
        is_list = f.cardinality is Cardinality.LIST
        fields_ctx.append({
            "py_name": f.name,
            "py_default": "_dc_field(default_factory=list)" if is_list else "None",
        })
    # Match cases cover inherited fields too when flattening is off.
    # Element fields take precedence over wildcards for the same name, so
    # wildcard cases are emitted after every element case.
    matchable = effective_fields(model, cls)
    matchable = [f for f in matchable if not f.is_wildcard] + \
        [f for f in matchable if f.is_wildcard]
    for f in matchable:
        is_list = f.cardinality is Cardinality.LIST
        what = f"{cls.name}.{f.name}"
        if f.kind is FieldKind.TEXT_CONTENT:
            text_field = f
            continue
        if f.kind is FieldKind.ATTRIBUTE:
            conv = _CONV_FN[f.value]
            imports.add(conv)
            required = f.cardinality is Cardinality.SCALAR_REQUIRED
            attr_cases.append({
                "kw": "elif" if attr_cases else "if",
                "xml_tuple": _py_tuple(f.xml_name),
                "py_name": f.name,
                "conv": conv,
                "what": repr(what),
                "required": required,
            })
            if required:
                required_checks.append({"py_name": f.name,
                                        "message": repr(f"missing required attribute "
                                                        f"{f.xml_name.local} in {cls.name}")})
            continue

        # Element field.  A dispatch field matches exactly its table's keys.
        # Its table is late-bound even when ignored: the match still reads it.
        table = _field_table(tables, f) if f.dispatch else None
        if table is not None:
            late[table] = None
        match_names = {e.qname for e in f.dispatch if e.via == "element"} or {f.xml_name}
        if len(match_names) == 1:
            match_expr = f"_n == {_py_tuple(match_names.pop())}"
        else:
            match_expr = f"_n in {table}"

        lines = []
        required = f.cardinality is Cardinality.SCALAR_REQUIRED
        if f.ignored:
            lines.append("ctx.skip_subtree()")
        else:
            if required:
                lines.append(f"_seen_{f.name} = True")
            if table is not None:
                imports.add("read_dispatched")
                lines.append(f"_v = read_dispatched(ctx, ev, {table}, {what!r})")
            elif f.collapse_chain:
                imports.add("read_collapsed")
                chain = "(" + ", ".join(_py_tuple(q) for q in f.collapse_chain) + ",)"
                if f.target_class in modules:
                    final = f"{parser(f.target_class)}, None"
                else:
                    final = f"None, {_conv_fn(f.value)}"
                    imports.add(_conv_fn(f.value))
                lines.append(f"_v = read_collapsed(ctx, {chain}, {final}, {what!r})")
            elif f.target_class is not None:
                lines.append(f"_v = {parser(f.target_class)}(ctx, ev)")
            else:
                imports.update(("read_simple", _conv_fn(f.value)))
                lines.append(f"_v = read_simple(ctx, ev, {_conv_fn(f.value)}, {what!r})")
            if is_list:
                lines.append(f"obj.{f.name}.append(_v)")
            else:
                lines.append(f"obj.{f.name} = _v")
        element_cases.append({"match_expr": match_expr, "lines": lines})
        if required and not f.ignored:
            required_checks.append({"py_name": f.name,
                                    "message": repr(f"missing required element "
                                                    f"{f.xml_name.local} in {cls.name}")})

    if text_field is not None and not cls.mixed:
        imports.add(_CONV_FN[text_field.value])
    ctx = {
        "name": cls.name,
        "module": modules[cls.name],
        "xml_type": cls.source_type,
        "runtime_imports": ", ".join(sorted(imports)),
        "late_bound": list(late),
        "has_late_bound": bool(late),
        "fields": fields_ctx,
        "element_cases": element_cases,
        "attr_cases": attr_cases,
        "has_attr_cases": bool(attr_cases),
        "required_flags": [{"py_name": c["py_name"]} for c in required_checks],
        "required_checks": required_checks,
        "is_mixed": cls.mixed,
        "collect_text": text_field is not None,
        "has_base": cls.base is not None,
        "base": cls.base or "",
        "base_module": modules.get(cls.base, "") if cls.base else "",
    }
    if text_field is not None:
        ctx["text_py_name"] = text_field.name
        ctx["text_conv"] = _CONV_FN[text_field.value]
        ctx["text_what"] = repr(f"{cls.name}.{text_field.name}")
        ctx["text_is_mixed"] = cls.mixed
    return ctx


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
from __future__ import annotations

from dataclasses import dataclass, field as _dc_field

from slimbind.runtime import {{runtime_imports}}
{{#has_base}}

from .{{base_module}} import {{base}}
{{/has_base}}
{{#has_late_bound}}

# Bound by dispatch.py once every class module is loaded.
{{/has_late_bound}}
{{#late_bound}}
{{.}} = None
{{/late_bound}}


@dataclass
class {{name}}{{#has_base}}({{base}}){{/has_base}}:
{{#fields}}
    {{py_name}}: object = {{py_default}}
{{/fields}}
{{^fields}}
    pass
{{/fields}}


def parse_{{name}}(ctx, start):
    if is_nil(start):
        return consume_nil(ctx)
    obj = {{name}}()
{{#required_flags}}
    _seen_{{py_name}} = False
{{/required_flags}}
{{#has_attr_cases}}
    for _aq, _av in start.attributes:
        _an = (_aq.namespace, _aq.local)
{{#attr_cases}}
        {{kw}} _an == {{xml_tuple}}:
{{#required}}
            _seen_{{py_name}} = True
{{/required}}
            obj.{{py_name}} = {{conv}}(ctx, _av, {{what}})
{{/attr_cases}}
{{/has_attr_cases}}
{{#collect_text}}
    _text = []
{{/collect_text}}
    while True:
        ev = ctx.next_event()
        if ev.kind is EventKind.END_ELEMENT:
            break
        if ev.kind is EventKind.TEXT:
{{#collect_text}}
            _text.append(ev.text)
{{/collect_text}}
{{^collect_text}}
            if ev.text.strip():
                ctx.violation(Violation.UNEXPECTED_TEXT,
                              "unexpected text in {{name}}")
{{/collect_text}}
            continue
        _n = (ev.name.namespace, ev.name.local)
{{#element_cases}}
        if {{match_expr}}:
{{#lines}}
            {{.}}
{{/lines}}
            continue
{{/element_cases}}
        ctx.violation(Violation.UNKNOWN_ELEMENT,
                      f"unexpected element {ev.name} in {{name}}")
        ctx.skip_subtree()
{{#required_checks}}
    if not _seen_{{py_name}}:
        ctx.violation(Violation.MISSING_REQUIRED, {{message}})
{{/required_checks}}
{{#collect_text}}
{{#text_is_mixed}}
    obj.{{text_py_name}} = "".join(_text) if _text else None
{{/text_is_mixed}}
{{^text_is_mixed}}
    obj.{{text_py_name}} = {{text_conv}}(ctx, "".join(_text), {{text_what}})
{{/text_is_mixed}}
{{/collect_text}}
    return obj
'''

_DISPATCH_TEMPLATE = '''\
"""Entry point and dispatch tables. Generated; do not edit."""
from __future__ import annotations

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
    """Recursive-descent parser sources for the built-in Python backend."""
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
        "irVersion": 1,
        "options": model.options.to_json_dict(),
        "classCount": len(model.classes),
        "collapsedClasses": [c.name for c in model.collapsed_classes],
        "artifacts": entries,
        "totalBytes": total,
    }
    with open(os.path.join(gen_dir, "MANIFEST.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
