"""Independent oracles: brute-force closures and a model-walking binder.

These deliberately avoid the production code paths they check.  The
closure oracles iterate the raw edge list to a fixed point; the
interpreter parses documents by walking the BindingModel directly and
produces plain dicts for deep-equality comparison against generated
parsers (compared via their records' ``to_dict()``).  It reads documents
as pull events from ``ParseContext`` and shares only the runtime's value
conversions (``conv_*``); it keeps its own simple-content reading, xsi:nil,
xsi:type, binding, collapse and dispatch walk, which is what it checks
against the generated parsers, which bind in expat's callbacks instead.
"""

from __future__ import annotations

from slimbind.binding import (
    BindingModel,
    Cardinality,
    FieldKind,
    ValueCategory,
    effective_fields,
)
from slimbind.model import XSI_NAMESPACE
from slimbind.runtime import (
    EventKind,
    ParseContext,
    Violation,
    conv_boolean,
    conv_decimal,
    conv_double,
    conv_integer,
    conv_string,
)
from slimbind.simplify import MANDATORY_EDGE_LABELS


def brute_closure(schema, roots, labels) -> set:
    """Fixed-point frontier expansion over the explicit edge list."""
    result = set(roots)
    while True:
        added = False
        for edge in schema.edges:
            if edge.label in labels and edge.src in result and edge.dst not in result:
                result.add(edge.dst)
                added = True
        if not added:
            return result


def brute_retained(schema, used) -> set:
    """Mandatory-edge closure plus ownership, by exhaustive iteration."""
    result = set(used)
    while True:
        added = False
        for edge in schema.edges:
            if edge.label in MANDATORY_EDGE_LABELS and edge.src in result \
                    and edge.dst not in result:
                result.add(edge.dst)
                added = True
        for comp in schema.components.values():
            if comp.owner is not None:
                if comp.owner in result and comp.id not in result:
                    result.add(comp.id)
                    added = True
                if comp.id in result and comp.owner not in result:
                    result.add(comp.owner)
                    added = True
        if not added:
            return result


def brute_substitution_members(schema, head) -> set:
    """Transitive membership by exhaustive chain walking."""
    from slimbind.model import ComponentKind
    members = set()
    for comp in schema.components.values():
        if comp.kind is not ComponentKind.ELEMENT_DECL or not comp.is_global:
            continue
        cursor = comp.detail.substitution_head
        seen = set()
        while cursor is not None and cursor not in seen:
            if cursor == head:
                members.add(comp.id)
                break
            seen.add(cursor)
            cursor = schema.component(cursor).detail.substitution_head
    members.discard(head)
    return members


# ---------------------------------------------------------------- interpreter

_CONV = {
    ValueCategory.STRING: conv_string,
    ValueCategory.INTEGER: conv_integer,
    ValueCategory.DECIMAL: conv_decimal,
    ValueCategory.DOUBLE: conv_double,
    ValueCategory.BOOLEAN: conv_boolean,
}


def _conv(ctx, category, raw, what):
    return _CONV.get(category, conv_string)(ctx, raw, what)


def _is_nil(start):
    return start.attr(XSI_NAMESPACE, "nil") in ("true", "1")


def _consume_nil(ctx):
    depth = 1
    while depth:
        ev = ctx.next_event()
        if ev.kind is EventKind.START_ELEMENT:
            depth += 1
        elif ev.kind is EventKind.END_ELEMENT:
            depth -= 1
    return None


def _xsi_type_of(ctx, ev):
    raw = ev.attr(XSI_NAMESPACE, "type")
    if raw is None:
        return None
    raw = raw.strip()
    nsmap = ctx.active_namespaces()
    if ":" in raw:
        prefix, _, local = raw.partition(":")
        return (nsmap.get(prefix, ""), local)
    return (nsmap.get("", ""), raw)


class Interpreter:
    """Parses documents by walking a BindingModel; returns plain dicts."""

    def __init__(self, model: BindingModel):
        self.model = model
        self.by_name = {c.name: c for c in model.classes}

    def parse_document(self, source, mode="strict", source_name="<oracle>"):
        ctx = ParseContext(source, mode=mode, source_name=source_name)
        ev = ctx.next_event()
        name = (ev.name.namespace, ev.name.local)
        for root in self.model.roots:
            if name != (root.qname.namespace, root.qname.local):
                continue
            result = None
            handled = False
            if root.dispatch:
                xt = _xsi_type_of(ctx, ev)
                for entry in root.dispatch:
                    if entry.target_class is None or entry.target_class not in self.by_name:
                        continue
                    if xt == (entry.qname.namespace, entry.qname.local):
                        result = self.parse_class(ctx, entry.target_class, ev)
                        handled = True
                        break
            if not handled:
                if root.target_class is not None and root.target_class in self.by_name:
                    result = self.parse_class(ctx, root.target_class, ev)
                else:
                    result = self.read_simple(ctx, ev, root.value,
                                              f"root {root.qname.local}")
            while True:
                ev = ctx.next_event()
                if ev.kind is EventKind.END_DOCUMENT:
                    return result, ctx.warnings
        ctx.violation(Violation.UNKNOWN_ELEMENT, f"unknown document root {ev.name}")
        return None, ctx.warnings

    # ------------------------------------------------------------ helpers

    def read_simple(self, ctx, start, category, what):
        """Text-only content; a child element is unexpected and skipped."""
        nil = _is_nil(start)
        parts = []
        while True:
            ev = ctx.next_event()
            if ev.kind is EventKind.TEXT:
                parts.append(ev.text)
            elif ev.kind is EventKind.END_ELEMENT:
                break
            else:
                ctx.violation(Violation.UNKNOWN_ELEMENT,
                              f"unexpected element {ev.name} in {what}")
                ctx.skip_subtree()
        if nil:
            return None
        return _conv(ctx, category, "".join(parts), what)

    def _next_content(self, ctx, what):
        while True:
            ev = ctx.next_event()
            if ev.kind is EventKind.TEXT:
                if ev.text.strip():
                    ctx.violation(Violation.UNEXPECTED_TEXT,
                                  f"unexpected text in {what}")
                continue
            return ev

    def _drain_to_end(self, ctx, what):
        while True:
            ev = ctx.next_event()
            if ev.kind is EventKind.END_ELEMENT:
                return
            if ev.kind is EventKind.TEXT:
                if ev.text.strip():
                    ctx.violation(Violation.UNEXPECTED_TEXT,
                                  f"unexpected text in {what}")
                continue
            ctx.violation(Violation.UNKNOWN_ELEMENT,
                          f"unexpected element {ev.name} in {what}")
            ctx.skip_subtree()

    def read_collapsed(self, ctx, field, what):
        result = None
        opened = 0
        chain = field.collapse_chain
        for i, qname in enumerate(chain):
            ev = self._next_content(ctx, what)
            name = (qname.namespace, qname.local)
            if ev.kind is EventKind.START_ELEMENT and \
                    (ev.name.namespace, ev.name.local) == name:
                if i == len(chain) - 1:
                    result = self._parse_target(ctx, field.target_class, field.value,
                                                ev, what)
                else:
                    opened += 1
                continue
            if ev.kind is EventKind.END_ELEMENT:
                ctx.violation(Violation.MISSING_REQUIRED,
                              f"missing collapsed element {qname.local} in {what}")
                opened -= 1
                break
            ctx.violation(Violation.UNKNOWN_ELEMENT,
                          f"unexpected element {ev.name} in {what}")
            ctx.skip_subtree()
            break
        for _ in range(opened + 1):
            self._drain_to_end(ctx, what)
        return result

    def _parse_target(self, ctx, target_class, value, ev, what):
        if target_class is not None and target_class in self.by_name:
            return self.parse_class(ctx, target_class, ev)
        return self.read_simple(ctx, ev, value, what)

    def _dispatch(self, ctx, owner, field, ev):
        what = f"{owner}.{field.name}"
        elem_entries = [e for e in field.dispatch if e.via == "element"]
        xsi_entries = [e for e in field.dispatch if e.via == "xsi-type"]
        if elem_entries:
            name = (ev.name.namespace, ev.name.local)
            for entry in elem_entries:
                if name != (entry.qname.namespace, entry.qname.local):
                    continue
                if entry.component == field.source_element and xsi_entries:
                    xt = _xsi_type_of(ctx, ev)
                    for xe in xsi_entries:
                        if xt == (xe.qname.namespace, xe.qname.local):
                            return self._parse_target(ctx, xe.target_class, xe.value,
                                                      ev, what)
                return self._parse_target(ctx, entry.target_class, entry.value,
                                          ev, what)
        else:
            xt = _xsi_type_of(ctx, ev)
            for xe in xsi_entries:
                if xt == (xe.qname.namespace, xe.qname.local):
                    return self._parse_target(ctx, xe.target_class, xe.value, ev, what)
            if field.target_class is not None and field.target_class in self.by_name:
                return self.parse_class(ctx, field.target_class, ev)
            if field.value is not None:
                return self.read_simple(ctx, ev, field.value, what)
        ctx.violation(Violation.UNKNOWN_ELEMENT,
                      f"no dispatch match for {ev.name} in {what}")
        ctx.skip_subtree()
        return None

    # ------------------------------------------------------------ classes

    def parse_class(self, ctx, class_name, start):
        cls = self.by_name[class_name]
        if _is_nil(start):
            return _consume_nil(ctx)
        fields = effective_fields(self.model, cls)
        obj = {}
        for f in fields:
            obj[f.name] = [] if f.cardinality is Cardinality.LIST else None
        seen = set()
        attr_fields = [f for f in fields if f.kind is FieldKind.ATTRIBUTE]
        # Same precedence rule as the emitter: wildcards match last.
        elem_fields = [f for f in fields
                       if f.kind is FieldKind.ELEMENT and not f.is_wildcard] + \
                      [f for f in fields
                       if f.kind is FieldKind.ELEMENT and f.is_wildcard]
        text_field = next((f for f in fields if f.kind is FieldKind.TEXT_CONTENT),
                          None)

        for aq, av in start.attributes:
            an = (aq.namespace, aq.local)
            for f in attr_fields:
                if an == (f.xml_name.namespace, f.xml_name.local):
                    seen.add(f.name)
                    obj[f.name] = _conv(ctx, f.value, av, f"{cls.name}.{f.name}")
                    break

        text_parts = []
        while True:
            ev = ctx.next_event()
            if ev.kind is EventKind.END_ELEMENT:
                break
            if ev.kind is EventKind.TEXT:
                if text_field is not None:
                    text_parts.append(ev.text)
                elif ev.text.strip():
                    ctx.violation(Violation.UNEXPECTED_TEXT,
                                  f"unexpected text in {cls.name}")
                continue
            name = (ev.name.namespace, ev.name.local)
            matched = None
            for f in elem_fields:
                if f.dispatch:
                    names = [(e.qname.namespace, e.qname.local)
                             for e in f.dispatch if e.via == "element"]
                    if not names:
                        names = [(f.xml_name.namespace, f.xml_name.local)]
                else:
                    names = [(f.xml_name.namespace, f.xml_name.local)]
                if name in names:
                    matched = f
                    break
            if matched is None:
                ctx.violation(Violation.UNKNOWN_ELEMENT,
                              f"unexpected element {ev.name} in {cls.name}")
                ctx.skip_subtree()
                continue
            f = matched
            if f.ignored:
                ctx.skip_subtree()
                continue
            seen.add(f.name)
            what = f"{cls.name}.{f.name}"
            if f.dispatch:
                value = self._dispatch(ctx, cls.name, f, ev)
            elif f.collapse_chain:
                value = self.read_collapsed(ctx, f, what)
            else:
                value = self._parse_target(ctx, f.target_class, f.value, ev, what)
            if f.cardinality is Cardinality.LIST:
                obj[f.name].append(value)
            else:
                obj[f.name] = value

        # Missing-required order is row order: wildcard fields come last.
        for f in sorted(fields, key=lambda f: f.is_wildcard):
            if f.kind is FieldKind.TEXT_CONTENT:
                continue
            if f.cardinality is Cardinality.SCALAR_REQUIRED and not f.ignored \
                    and f.name not in seen:
                if f.kind is FieldKind.ATTRIBUTE:
                    missing = f"attribute {f.xml_name.local}"
                elif f.is_wildcard:
                    missing = "element matching xs:any"
                else:
                    missing = f"element {f.xml_name.local}"
                ctx.violation(Violation.MISSING_REQUIRED,
                              f"missing required {missing} in {cls.name}")
        if text_field is not None:
            if cls.mixed:
                obj[text_field.name] = "".join(text_parts) if text_parts else None
            else:
                obj[text_field.name] = _conv(ctx, text_field.value,
                                             "".join(text_parts),
                                             f"{cls.name}.{text_field.name}")
        return obj
