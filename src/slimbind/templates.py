"""Minimal mustache-style template engine used for source emission.

Supported constructs:

* ``{{path}}``          insert a value (dotted lookup through the context stack)
* ``{{#path}}...{{/path}}``  section: iterate a list, descend into a dict,
  or render once for any other truthy value
* ``{{^path}}...{{/path}}``  inverted section: render when falsy or empty
* ``{{! comment}}``     dropped
* ``{{.}}``             the current context value itself

Section and comment tags standing alone on a line swallow that line, so
templates can be indented naturally without leaking blank lines.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

from .errors import TemplateError, UnresolvedPlaceholderError

_TAG_RE = re.compile(r"\{\{\s*([#^/!]?)\s*([^}]*?)\s*\}\}")


@dataclass
class ManifestEntry:
    template: str
    path_pattern: str
    per: str = "model"  # "model" | "class"


@dataclass
class TemplateSet:
    templates: dict  # name -> template text
    manifest: list  # of ManifestEntry

    @classmethod
    def from_dir(cls, path) -> "TemplateSet":
        """Load a template set directory containing ``templates.json``.

        The JSON lists ``{"manifest": [{"template": ..., "path": ...,
        "per": "model"|"class"}]}``; each named template is a file next to it.
        """
        meta_path = os.path.join(path, "templates.json")
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        templates = {}
        manifest = []
        for entry in meta["manifest"]:
            name = entry["template"]
            if name not in templates:
                with open(os.path.join(path, name), "r", encoding="utf-8") as fh:
                    templates[name] = fh.read()
            manifest.append(ManifestEntry(name, entry["path"],
                                          entry.get("per", "model")))
        return cls(templates, manifest)


# ---------------------------------------------------------------- parsing

@dataclass
class _Text:
    text: str


@dataclass
class _Var:
    path: str
    line: int


@dataclass
class _Section:
    path: str
    inverted: bool
    line: int
    children: list = field(default_factory=list)


def _strip_standalone(template: str) -> str:
    """Remove the line wrapper around tags that stand alone on a line."""
    lines = template.split("\n")
    out = []
    for i, line in enumerate(lines):
        stripped = line.strip()
        m = _TAG_RE.fullmatch(stripped)
        if m and m.group(1) in ("#", "^", "/", "!"):
            out.append(stripped)
        elif i == len(lines) - 1:
            out.append(line)
        else:
            out.append(line + "\n")
    return "".join(out)


def compile_template(name: str, template: str):
    """Parse a template into a node tree (TEMPLATE_ERROR on bad syntax)."""
    text = _strip_standalone(template)
    root = _Section("", False, 0)
    stack = [root]
    pos = 0
    line = 1
    for m in _TAG_RE.finditer(text):
        if m.start() > pos:
            chunk = text[pos:m.start()]
            stack[-1].children.append(_Text(chunk))
            line += chunk.count("\n")
        sigil, path = m.group(1), m.group(2)
        if sigil == "!":
            pass
        elif sigil in ("#", "^"):
            node = _Section(path, sigil == "^", line)
            stack[-1].children.append(node)
            stack.append(node)
        elif sigil == "/":
            if len(stack) == 1:
                raise TemplateError(f"closing tag {{{{/{path}}}}} with no open "
                                    "section", template=name, line=line)
            if stack[-1].path != path:
                raise TemplateError(
                    f"section {{{{#{stack[-1].path}}}}} closed by "
                    f"{{{{/{path}}}}}", template=name, line=line)
            stack.pop()
        else:
            if not path:
                raise TemplateError("empty placeholder", template=name, line=line)
            stack[-1].children.append(_Var(path, line))
        pos = m.end()
    if len(stack) > 1:
        raise TemplateError(f"unclosed section {{{{#{stack[-1].path}}}}}",
                            template=name, line=stack[-1].line)
    if pos < len(text):
        stack[-1].children.append(_Text(text[pos:]))
    return root


# ---------------------------------------------------------------- rendering

_MISSING = object()


def _lookup(path: str, stack: list):
    if path == ".":
        return stack[-1]
    parts = path.split(".")
    for frame in reversed(stack):
        value = frame
        found = True
        for part in parts:
            if isinstance(value, dict) and part in value:
                value = value[part]
            else:
                found = False
                break
        if found:
            return value
    return _MISSING


def _render_value(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render_template(name: str, template, context: dict) -> str:
    """Render ``template``: its text, or the tree compile_template made of it."""
    root = template if isinstance(template, _Section) else compile_template(name, template)
    out = []
    stack = [context]

    def walk(nodes):
        for node in nodes:
            if isinstance(node, _Text):
                out.append(node.text)
            elif isinstance(node, _Var):
                value = _lookup(node.path, stack)
                if value is _MISSING:
                    raise UnresolvedPlaceholderError(
                        f"unresolved placeholder '{node.path}'",
                        template=name, line=node.line)
                out.append(_render_value(value))
            else:
                value = _lookup(node.path, stack)
                if value is _MISSING:
                    raise UnresolvedPlaceholderError(
                        f"unresolved section '{node.path}'",
                        template=name, line=node.line)
                if node.inverted:
                    if not value:
                        walk(node.children)
                    continue
                if isinstance(value, (list, tuple)):
                    for item in value:
                        stack.append(item)
                        walk(node.children)
                        stack.pop()
                elif isinstance(value, dict):
                    stack.append(value)
                    walk(node.children)
                    stack.pop()
                elif value:
                    walk(node.children)

    walk(root.children)
    return "".join(out)
