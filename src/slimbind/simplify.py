"""Compute the retained schema subset and emit it as self-contained XSD files.

The retained set is the usage report's components closed under the
mandatory reference edges (base types, declared types, attribute types,
group references, substitution heads) plus ownership: an anonymous
component travels with its owner in both directions, because owned
definitions are emitted inline.

Emission keeps each retained definition intact, with two reference-validity
adjustments: particles referencing a global element that was not retained
are dropped, and substitutionGroup attributes pointing at a dropped head
are omitted.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .errors import NotClosedError
from .jsonio import dumps
from .model import (
    XSD_NAMESPACE,
    AttributeUse,
    ComponentKind,
    ContentKind,
    Derivation,
    EdgeLabel,
    ElementParticle,
    GroupParticle,
    QName,
    SchemaSet,
    SimpleVariety,
    WildcardParticle,
    builtin_type_id,
)

MANDATORY_EDGE_LABELS = frozenset({
    EdgeLabel.BASE_TYPE,
    EdgeLabel.DECLARED_TYPE,
    EdgeLabel.ATTRIBUTE_TYPE,
    EdgeLabel.GROUP_REF,
    EdgeLabel.SUBSTITUTION_HEAD,
})


def compute_retained_set(schema: SchemaSet, usage) -> set:
    """Close the used components under mandatory edges and ownership."""
    retained = set()
    frontier = list(usage.used_components)
    for comp_id in frontier:
        schema.component(comp_id)  # raises UNKNOWN_COMPONENT on stale ids
    retained.update(frontier)
    while frontier:
        nxt = []
        for comp_id in frontier:
            neighbours = [e.dst for e in schema.out_edges(comp_id, MANDATORY_EDGE_LABELS)]
            neighbours.extend(schema.owned(comp_id))
            owner = schema.component(comp_id).owner
            if owner is not None:
                neighbours.append(owner)
            for n in neighbours:
                if n not in retained:
                    retained.add(n)
                    nxt.append(n)
        frontier = nxt
    return retained


# ---------------------------------------------------------------- reporting

@dataclass
class NamespaceCount:
    retained: int = 0
    total: int = 0


@dataclass
class ReductionReport:
    total_components: int
    retained_components: int
    usage_ratio: float
    retained_by_namespace: dict[str, NamespaceCount]
    removed_globals: list[QName]

    def percent(self) -> str:
        return f"{self.usage_ratio * 100:.1f}%"

    def to_json(self) -> str:
        return dumps(self)


def reduction_report(schema: SchemaSet, retained) -> ReductionReport:
    """Counts over user-schema global components only."""
    for comp_id in retained:
        schema.component(comp_id)
    per_ns = {}
    removed = []
    for comp in schema.globals():
        if comp.namespace == XSD_NAMESPACE:
            continue  # built-ins are implicit, not part of the ratio
        counts = per_ns.setdefault(comp.namespace, NamespaceCount())
        counts.total += 1
        if comp.id in retained:
            counts.retained += 1
        else:
            removed.append(comp.name)
    total = sum(c.total for c in per_ns.values())
    kept = sum(c.retained for c in per_ns.values())
    return ReductionReport(total, kept, kept / total if total else 1.0, per_ns,
                           sorted(removed))


# ---------------------------------------------------------------- closure check

# Substitution heads are excluded: emission can drop a substitutionGroup
# attribute, but a base/type/group reference cannot be emitted dangling.
_UNDROPPABLE_LABELS = MANDATORY_EDGE_LABELS - {EdgeLabel.SUBSTITUTION_HEAD}


def _check_closed(schema: SchemaSet, retained):
    for comp_id in sorted(retained):
        comp = schema.component(comp_id)
        for edge in schema.out_edges(comp_id, _UNDROPPABLE_LABELS):
            if edge.dst not in retained:
                raise NotClosedError(
                    f"retained component {comp_id} needs {edge.dst} "
                    f"({edge.label.value}) which is not retained")
        for owned_id in schema.owned(comp_id):
            if owned_id not in retained:
                raise NotClosedError(
                    f"retained component {comp_id} owns {owned_id} "
                    "which is not retained")
        if comp.owner is not None and comp.owner not in retained:
            raise NotClosedError(
                f"retained component {comp_id} is owned by {comp.owner} "
                "which is not retained")


# ---------------------------------------------------------------- xsd emission

def namespace_slug(namespace: str) -> str:
    if not namespace:
        return "nonamespace"
    slug = re.sub(r"^[a-z][a-z0-9+.-]*://", "", namespace.lower())
    slug = re.sub(r"[^a-z0-9]+", "-", slug).strip("-")
    return slug or "nonamespace"


_ATTR_ORDER = ["name", "type", "ref", "base", "minOccurs", "maxOccurs", "use",
               "default", "form", "substitutionGroup", "abstract", "nillable",
               "mixed", "namespace", "processContents", "itemType",
               "memberTypes", "value"]
_ATTR_RANK = {a: i for i, a in enumerate(_ATTR_ORDER)}


def _escape(value: str) -> str:
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace('"', "&quot;").replace(">", "&gt;"))


class _FileRenderer:
    """Renders one namespace's retained components into one XSD document."""

    def __init__(self, schema: SchemaSet, retained, namespace: str):
        self.schema = schema
        self.retained = retained
        self.tns = namespace
        self.prefixes = {XSD_NAMESPACE: "xs"}
        if namespace:
            self.prefixes[namespace] = "tns"
        self.referenced = set()
        self.lines = []

    # ---------------------------------------------------------- name helpers

    def _prefix_for(self, namespace: str) -> str:
        if namespace in self.prefixes:
            return self.prefixes[namespace]
        prefix = f"ns{sum(1 for p in self.prefixes.values() if p.startswith('ns')) + 1}"
        self.prefixes[namespace] = prefix
        return prefix

    def qref(self, comp_id: str) -> str:
        comp = self.schema.component(comp_id)
        qname = comp.name
        if qname.namespace == "":
            return qname.local
        self.referenced.add(qname.namespace)
        return f"{self._prefix_for(qname.namespace)}:{qname.local}"

    # ---------------------------------------------------------- line helpers

    def tag(self, indent, local, attrs, close=False):
        parts = [f"<xs:{local}"]
        for key, value in sorted(attrs, key=lambda kv: (_ATTR_RANK.get(kv[0], 99),
                                                        kv[0])):
            if value is None:
                continue
            parts.append(f' {key}="{_escape(str(value))}"')
        parts.append("/>" if close else ">")
        self.lines.append("  " * indent + "".join(parts))

    def end(self, indent, local):
        self.lines.append("  " * indent + f"</xs:{local}>")

    def block(self, indent, local, attrs, body):
        """Render an element, self-closing when the body emits nothing."""
        mark = len(self.lines)
        self.tag(indent, local, attrs)
        body()
        if len(self.lines) == mark + 1:
            self.lines[mark] = self.lines[mark][:-1] + "/>"
        else:
            self.end(indent, local)

    # ---------------------------------------------------------- components

    def render_global(self, comp, indent=1):
        if comp.kind is ComponentKind.ELEMENT_DECL:
            self._element_decl(comp, indent, occurs=None)
        elif comp.kind is ComponentKind.COMPLEX_TYPE:
            self._complex_type(comp, indent)
        elif comp.kind is ComponentKind.SIMPLE_TYPE:
            self._simple_type(comp, indent)
        elif comp.kind is ComponentKind.MODEL_GROUP_DEF:
            self.block(indent, "group", [("name", comp.name.local)],
                       lambda: self._particle(comp.detail.root, indent + 1,
                                              top_level=True))
        elif comp.kind is ComponentKind.ATTRIBUTE_GROUP_DEF:
            self.block(indent, "attributeGroup", [("name", comp.name.local)],
                       lambda: self._attribute_uses(comp.id, comp.detail, indent + 1))
        elif comp.kind is ComponentKind.ATTRIBUTE_DECL:
            self._attribute_decl(comp, indent, use=None)

    def _occurs_attrs(self, occurs):
        attrs = []
        if occurs is None:
            return attrs
        if occurs.min != 1:
            attrs.append(("minOccurs", occurs.min))
        if occurs.max is None:
            attrs.append(("maxOccurs", "unbounded"))
        elif occurs.max != 1:
            attrs.append(("maxOccurs", occurs.max))
        return attrs

    def _inline_type(self, comp, type_id):
        """The anonymous type to render inline under comp, if any."""
        type_comp = self.schema.component(type_id)
        if type_comp.name is None and type_comp.owner == comp.id:
            return type_comp
        return None

    def _element_decl(self, comp, indent, occurs):
        detail = comp.detail
        attrs = [("name", detail.qname.local)]
        attrs.extend(self._occurs_attrs(occurs))
        inline = self._inline_type(comp, detail.declared_type)
        if inline is None and detail.declared_type != builtin_type_id("anyType"):
            attrs.append(("type", self.qref(detail.declared_type)))
        if detail.substitution_head and detail.substitution_head in self.retained:
            attrs.append(("substitutionGroup", self.qref(detail.substitution_head)))
        if detail.is_abstract:
            attrs.append(("abstract", "true"))
        if detail.nillable:
            attrs.append(("nillable", "true"))
        if not comp.is_global and self.tns and detail.qname.namespace == "":
            attrs.append(("form", "unqualified"))

        def body():
            if inline is not None:
                if inline.kind is ComponentKind.COMPLEX_TYPE:
                    self._complex_type(inline, indent + 1)
                else:
                    self._simple_type(inline, indent + 1)
        self.block(indent, "element", attrs, body)

    def _attribute_decl(self, comp, indent, use: AttributeUse):
        detail = comp.detail
        attrs = [("name", detail.qname.local)]
        inline = self._inline_type(comp, detail.declared_type)
        if inline is None and detail.declared_type != builtin_type_id("anySimpleType"):
            attrs.append(("type", self.qref(detail.declared_type)))
        if use is not None:
            if use.required:
                attrs.append(("use", "required"))
            if use.default is not None:
                attrs.append(("default", use.default))
        if not comp.is_global and self.tns and detail.qname.namespace == self.tns:
            attrs.append(("form", "qualified"))

        def body():
            if inline is not None:
                self._simple_type(inline, indent + 1)
        self.block(indent, "attribute", attrs, body)

    def _complex_type(self, comp, indent):
        detail = comp.detail
        attrs = []
        if comp.is_global:
            attrs.append(("name", comp.name.local))
        if detail.is_abstract:
            attrs.append(("abstract", "true"))
        if detail.mixed:
            attrs.append(("mixed", "true"))

        def body():
            if detail.derivation is Derivation.NONE:
                self._type_body(comp.id, detail, indent + 1)
                return
            wrapper = ("simpleContent"
                       if detail.content.kind is ContentKind.SIMPLE
                       else "complexContent")
            deriv = detail.derivation.value

            def inner():
                def deriv_body():
                    if wrapper == "complexContent":
                        self._type_body(comp.id, detail, indent + 3)
                    else:
                        for facet, value in detail.facets:
                            self.tag(indent + 3, facet, [("value", value)], close=True)
                        self._attribute_uses(comp.id, detail, indent + 3)
                self.block(indent + 2, deriv, [("base", self.qref(detail.base))],
                           deriv_body)
            self.block(indent + 1, wrapper, [], inner)
        self.block(indent, "complexType", attrs, body)

    def _simple_type(self, comp, indent):
        detail = comp.detail
        attrs = [("name", comp.name.local)] if comp.is_global else []

        def body():
            if detail.variety is SimpleVariety.LIST:
                inline = self._inline_type(comp, detail.item)
                if inline is not None:
                    self.block(indent + 1, "list", [],
                               lambda: self._simple_type(inline, indent + 2))
                else:
                    self.tag(indent + 1, "list", [("itemType", self.qref(detail.item))],
                             close=True)
                return
            if detail.variety is SimpleVariety.UNION:
                named = []
                inline = []
                for member in detail.members:
                    m = self.schema.component(member)
                    if m.name is None and m.owner == comp.id:
                        inline.append(m)
                    else:
                        named.append(member)
                u_attrs = []
                if named:
                    u_attrs.append(("memberTypes",
                                    " ".join(self.qref(m) for m in named)))

                def ubody():
                    for m in inline:
                        self._simple_type(m, indent + 2)
                self.block(indent + 1, "union", u_attrs, ubody)
                return
            # Atomic restriction.
            inline = self._inline_type(comp, detail.base) if detail.base else None
            r_attrs = [] if inline is not None else [("base", self.qref(detail.base))]

            def rbody():
                if inline is not None:
                    self._simple_type(inline, indent + 2)
                for facet, value in detail.facets:
                    self.tag(indent + 2, facet, [("value", value)], close=True)
            self.block(indent + 1, "restriction", r_attrs, rbody)
        self.block(indent, "simpleType", attrs, body)

    def _type_body(self, comp_id, detail, indent):
        if detail.content.kind is ContentKind.PARTICLES:
            self._particle(detail.content.root, indent, top_level=True)
        self._attribute_uses(comp_id, detail, indent)

    def _attribute_uses(self, comp_id, detail, indent):
        seen_groups = set()
        for use in detail.attributes:
            if use.via_group is not None:
                if use.via_group not in seen_groups:
                    seen_groups.add(use.via_group)
                    self.tag(indent, "attributeGroup",
                             [("ref", self.qref(use.via_group))], close=True)
                continue
            attr = self.schema.component(use.attribute)
            if attr.is_global:
                attrs = [("ref", self.qref(attr.id))]
                if use.required:
                    attrs.append(("use", "required"))
                if use.default is not None:
                    attrs.append(("default", use.default))
                self.tag(indent, "attribute", attrs, close=True)
            else:
                self._attribute_decl(attr, indent, use)
        wildcard = getattr(detail, "attribute_wildcard", None)
        if wildcard and wildcard in self.retained:
            wc = self.schema.component(wildcard)
            if wc.owner == comp_id:
                self._wildcard(wc, indent, "anyAttribute", occurs=None)

    def _particle(self, particle, indent, top_level=False):
        if isinstance(particle, GroupParticle):
            if particle.ref is not None:
                self.tag(indent, "group",
                         [("ref", self.qref(particle.ref))]
                         + self._occurs_attrs(particle.occurs), close=True)
                return
            occ = self._occurs_attrs(particle.occurs)

            def body():
                for child in particle.children:
                    self._particle(child, indent + 1)
            self.block(indent, particle.compositor.value, occ, body)
            return
        if isinstance(particle, ElementParticle):
            elem = self.schema.component(particle.element)
            if elem.is_global:
                if elem.id not in self.retained:
                    return  # pruned: referenced global element was removed
                self.tag(indent, "element",
                         [("ref", self.qref(elem.id))]
                         + self._occurs_attrs(particle.occurs), close=True)
            else:
                self._element_decl(elem, indent, particle.occurs)
            return
        if isinstance(particle, WildcardParticle):
            wc = self.schema.component(particle.wildcard)
            self._wildcard(wc, indent, "any", particle.occurs)

    def _wildcard(self, comp, indent, tag_name, occurs):
        detail = comp.detail
        attrs = []
        if detail.constraint == "other":
            attrs.append(("namespace", "##other"))
        elif detail.constraint == "enum":
            tokens = []
            for ns in detail.namespaces:
                if ns == detail.owner_namespace and ns:
                    tokens.append("##targetNamespace")
                elif ns == "":
                    tokens.append("##local")
                else:
                    tokens.append(ns)
            attrs.append(("namespace", " ".join(tokens)))
        if detail.process_contents != "strict":
            attrs.append(("processContents", detail.process_contents))
        attrs.extend(self._occurs_attrs(occurs))
        self.tag(indent, tag_name, attrs, close=True)


_KIND_ORDER = {
    ComponentKind.SIMPLE_TYPE: 0,
    ComponentKind.COMPLEX_TYPE: 1,
    ComponentKind.MODEL_GROUP_DEF: 2,
    ComponentKind.ATTRIBUTE_GROUP_DEF: 3,
    ComponentKind.ATTRIBUTE_DECL: 4,
    ComponentKind.ELEMENT_DECL: 5,
}


def emit_reduced_schemas(schema: SchemaSet, retained, out_dir) -> list:
    """Write one XSD file per namespace with retained components.

    Returns the list of written file paths (sorted).  The retained set must
    be closed under mandatory edges and ownership (NOT_CLOSED otherwise).
    """
    retained = set(retained)
    for comp_id in retained:
        schema.component(comp_id)
    _check_closed(schema, retained)

    by_ns = {}
    for comp_id in sorted(retained):
        comp = schema.component(comp_id)
        if comp.namespace == XSD_NAMESPACE:
            continue
        if not comp.is_global:
            continue  # anonymous components are emitted inline by their owners
        by_ns.setdefault(comp.namespace, []).append(comp)

    os.makedirs(out_dir, exist_ok=True)
    written = []
    slugs = {ns: namespace_slug(ns) for ns in by_ns}
    if len(set(slugs.values())) != len(slugs):
        # Disambiguate colliding slugs deterministically.
        for i, ns in enumerate(sorted(slugs)):
            slugs[ns] = f"{slugs[ns]}-{i}"

    for ns in sorted(by_ns):
        renderer = _FileRenderer(schema, retained, ns)
        comps = sorted(by_ns[ns], key=lambda c: (_KIND_ORDER[c.kind], c.name.local))
        for comp in comps:
            renderer.render_global(comp)

        imports = sorted(n for n in renderer.referenced
                         if n not in (ns, XSD_NAMESPACE, ""))
        header = ["<?xml version=\"1.0\" encoding=\"UTF-8\"?>"]
        root_attrs = [f'xmlns:xs="{XSD_NAMESPACE}"']
        for ref_ns, prefix in sorted(renderer.prefixes.items(), key=lambda kv: kv[1]):
            if ref_ns == XSD_NAMESPACE:
                continue
            if ref_ns == ns or ref_ns in imports or ref_ns in renderer.referenced:
                root_attrs.append(f'xmlns:{prefix}="{_escape(ref_ns)}"')
        if ns:
            root_attrs.append(f'targetNamespace="{_escape(ns)}"')
            root_attrs.append('elementFormDefault="qualified"')
        header.append("<xs:schema " + " ".join(root_attrs) + ">")
        for imp_ns in imports:
            header.append(f'  <xs:import namespace="{_escape(imp_ns)}" '
                          f'schemaLocation="{slugs[imp_ns]}.xsd"/>')
        body = header + renderer.lines + ["</xs:schema>", ""]
        path = os.path.join(out_dir, f"{slugs[ns]}.xsd")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(body))
        written.append(path)
    return sorted(written)
